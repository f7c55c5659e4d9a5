import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhfocus.errors import SingularDivisionError
from qhfocus.jets import div_trunc, mul_trunc

ORDER = 6
N = ORDER + 1
COEFF = st.floats(-2.0, 2.0)


def jets(const=COEFF, order=ORDER):
    """Coefficient arrays c_0..c_order with entries in [-2, 2]."""
    return st.tuples(const, *[COEFF] * order).map(np.array)


def mul(a, b):
    return np.array(mul_trunc(a, b, N))


def div(a, b):
    return np.array(div_trunc(a, b, N))


def close(a, b, atol: float) -> bool:
    return np.allclose(a, b, rtol=0.0, atol=atol)


# coefficients of a triple product are sums of at most 28 terms of size <= 8,
# so rounding stays far below 1e-12
@settings(deadline=None)
@given(jets(), jets(), jets())
def test_addition_and_multiplication_ring_axioms(a, b, c):
    assert np.array_equal(a + b, b + a)
    # multiplication commutes up to summation order
    assert close(mul(a, b), mul(b, a), 1e-13)
    assert close(mul(a, b + c), mul(a, b) + mul(a, c), 1e-12)
    assert close(mul(mul(a, b), c), mul(a, mul(b, c)), 1e-12)


@settings(deadline=None)
@given(jets())
def test_multiplicative_identity_and_neg(a):
    one = np.r_[1.0, np.zeros(ORDER)]
    assert np.array_equal(mul(a, one), a)
    assert np.array_equal(a + (-a), np.zeros(N))


# with |b_0| >= 1 and |b_i| <= 2 the back-substitution amplifies rounding by at
# most 3**ORDER, which keeps the forward error near 1e-11
@settings(deadline=None)
@given(jets(), jets(const=st.floats(1.0, 2.0) | st.floats(-2.0, -1.0)))
def test_division_inverts_multiplication(a, b):
    assert close(div(mul(a, b), b), a, 1e-10)


def test_division_by_zero_series_raises():
    with pytest.raises(SingularDivisionError):
        div_trunc(np.array([1.0, 0.5, -0.3, 2.0, 1.0]), np.zeros(5), 5)


def test_mul_div_trunc_generic_lists():
    a = [1.0, 2.0, 0.5]
    b = [2.0, -1.0, 0.0]
    prod = mul_trunc(a, b, 3)
    assert prod == pytest.approx([2.0, 3.0, -1.0])
    back = div_trunc(prod, b, 3)
    assert back == pytest.approx(a)
