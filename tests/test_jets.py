import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhfocus import Jet
from qhfocus.errors import SingularDivisionError
from qhfocus.jets import div_trunc, mul_trunc

ORDER = 6
COEFF = st.floats(-2.0, 2.0)


def jets(const=COEFF, order=ORDER):
    """Jets of the given order with coefficients in [-2, 2]."""
    return st.tuples(const, *[COEFF] * order).map(Jet)


def close(a: Jet, b: Jet, atol: float) -> bool:
    return np.allclose(a.coeffs, b.coeffs, rtol=0.0, atol=atol)


# coefficients of a triple product are sums of at most 28 terms of size <= 8,
# so rounding stays far below 1e-12
@settings(deadline=None)
@given(jets(), jets(), jets())
def test_addition_and_multiplication_ring_axioms(a, b, c):
    assert a + b == b + a
    # multiplication commutes up to summation order
    assert close(a * b, b * a, 1e-13)
    assert close(a * (b + c), a * b + a * c, 1e-12)
    assert close((a * b) * c, a * (b * c), 1e-12)


@settings(deadline=None)
@given(jets())
def test_multiplicative_identity_and_neg(a):
    one = Jet((1.0,) + (0.0,) * ORDER)
    assert a * one == a
    assert a + (-a) == Jet((0.0,) * (ORDER + 1))


# with |b_0| >= 1 and |b_i| <= 2 the back-substitution amplifies rounding by at
# most 3**ORDER, which keeps the forward error near 1e-11
@settings(deadline=None)
@given(jets(), jets(const=st.floats(1.0, 2.0) | st.floats(-2.0, -1.0)))
def test_division_inverts_multiplication(a, b):
    assert close((a * b) / b, a, 1e-10)


def test_division_with_valuation_shift():
    # (h**2 + h**3) / (h + h**2) = h
    num = Jet((0.0, 0.0, 1.0, 1.0))
    den = Jet((0.0, 1.0, 1.0, 0.0))
    q = num / den
    assert np.allclose(q.coeffs[:3], (0.0, 1.0, 0.0), atol=1e-14)


def test_division_by_zero_series_raises():
    with pytest.raises(SingularDivisionError):
        Jet((1.0, 0.5, -0.3, 2.0, 1.0)) / Jet((0.0,) * 5)


def test_mul_div_trunc_generic_lists():
    a = [1.0, 2.0, 0.5]
    b = [2.0, -1.0, 0.0]
    prod = mul_trunc(a, b, 3)
    assert prod == pytest.approx([2.0, 3.0, -1.0])
    back = div_trunc(prod, b, 3)
    assert back == pytest.approx(a)


def test_compose_known_example():
    # outer(h) = h + h**2, inner(h) = h + h**3; composition to O(h**3): h + h**2 + h**3
    outer = Jet((0.0, 1.0, 1.0, 0.0))
    inner = Jet((0.0, 1.0, 0.0, 1.0))
    comp = outer.compose(inner)
    assert np.allclose(comp.coeffs, (0.0, 1.0, 1.0, 1.0), atol=1e-14)


def test_compose_requires_constant_free_inner():
    with pytest.raises(ValueError):
        Jet((0.5, 1.0, 2.0, -1.0)).compose(Jet((1.0, 1.0, 0.0, 0.0)))


# the truncation error of the composed series is O(h**(ORDER + 1)), about
# 1e-18 at h = 1e-3 for coefficients in [-2, 2]
@settings(deadline=None)
@given(jets(), jets(const=st.just(0.0)))
def test_compose_matches_numeric_evaluation(outer, inner):
    h = 1e-3
    assert outer.compose(inner)(h) == pytest.approx(outer(inner(h)), abs=1e-14)


def test_radius_constructor_prepends_zero():
    jet = Jet.radius([1.0, 0.5])
    assert jet.coeffs[0] == 0.0
    assert jet.radius_coeffs == (1.0, 0.5)


def test_identity_jet_evaluation():
    jet = Jet.identity(5)
    assert jet(0.37) == pytest.approx(0.37)
    assert jet.order == 5
