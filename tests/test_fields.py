import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qhfocus import Monomial, WeightedField
from qhfocus.casestudy import eq325_field
from qhfocus.errors import InvalidFieldError
from qhfocus.fields import (
    RULE_LEADING_DEGENERACY,
    RULE_POSITIVE_LAMBDA,
    RULE_WEIGHT_BOUND,
    format_system,
    load_system,
    normalize,
    parse_system,
    require_valid,
)


def field23(**kw):
    return WeightedField(
        p=2,
        q=3,
        x_terms=(Monomial(5, 0, kw.get("a50", 1.0)), Monomial(2, 2, kw.get("a22", 0.5))),
        y_terms=(Monomial(4, 1, kw.get("b41", 1.0)), Monomial(1, 3, kw.get("b13", -0.3))),
        **{k: v for k, v in kw.items() if k in ("lambda1", "lambda2")},
    )


def test_monomial_weight():
    assert Monomial(5, 0, 1.0).weight(2, 3) == 10
    assert Monomial(1, 3, 1.0).weight(2, 3) == 11


def test_default_lambdas_equal_weights():
    f = field23()
    assert f.lambda1 == 2.0 and f.lambda2 == 3.0
    assert f.normalized


def test_eval_matches_hand_expansion():
    f = field23(a50=1.0, a22=0.5, b41=2.0, b13=-0.3)
    x, y = 0.7, -0.4
    u, v = f(x, y)
    assert u == pytest.approx(-2 * y**3 + x**5 + 0.5 * x**2 * y**2, rel=1e-15)
    assert v == pytest.approx(3 * x**5 + 2 * x**4 * y - 0.3 * x * y**3, rel=1e-15)


def test_validate_accepts_admissible_field():
    f = field23()
    assert require_valid(f) is f


def test_validate_flags_low_weight_term():
    f = field23()
    bad = WeightedField(
        p=2, q=3, x_terms=f.x_terms + (Monomial(1, 1, 1.0),), y_terms=f.y_terms
    )
    with pytest.raises(InvalidFieldError, match=rf"{RULE_WEIGHT_BOUND} at \(1,1\)"):
        require_valid(bad)


@pytest.mark.parametrize(
    "p, q, x_terms, y_terms",
    [
        (1, 1, ((1, 0),), ((0, 1),)),  # linear damping
        (2, 3, ((3, 1),), ((2, 2),)),
    ],
)
def test_validate_accepts_terms_at_the_leading_weight(p, q, x_terms, y_terms):
    f = WeightedField(
        p=p, q=q,
        x_terms=tuple(Monomial(k, j, 0.1) for k, j in x_terms),
        y_terms=tuple(Monomial(k, j, 0.1) for k, j in y_terms),
    )
    assert require_valid(f) is f


@pytest.mark.parametrize(
    "side, k, j, rule",
    [
        ("x", 0, 0, RULE_WEIGHT_BOUND),
        ("y", 0, 0, RULE_WEIGHT_BOUND),
        ("x", 0, 1, RULE_LEADING_DEGENERACY),
        ("y", 1, 0, RULE_LEADING_DEGENERACY),
    ],
)
def test_validate_still_flags_low_weight_and_leading_terms_at_1_1(side, k, j, rule):
    terms = (Monomial(k, j, 0.1),)
    f = WeightedField(p=1, q=1, **{f"{side}_terms": terms})
    with pytest.raises(InvalidFieldError, match=rf"{rule} at \({k},{j}\)"):
        require_valid(f)


def test_validate_flags_leading_degeneracy():
    # an x-side term at (0, 2p-1) would collide with the leading monomial
    f = field23()
    bad = WeightedField(
        p=2, q=3, x_terms=f.x_terms + (Monomial(0, 3, 0.1),), y_terms=f.y_terms
    )
    with pytest.raises(InvalidFieldError, match=rf"{RULE_LEADING_DEGENERACY} at \(0,3\)"):
        require_valid(bad)


def test_validate_flags_nonpositive_lambda():
    with pytest.raises(InvalidFieldError, match=RULE_POSITIVE_LAMBDA):
        require_valid(field23(lambda1=-1.0))


@pytest.mark.parametrize("line", ["lambda1 inf", "lambda1 nan", "lambda2 inf", "lambda2 -inf"])
def test_a_non_finite_lambda_is_rejected(line):
    # lambda2 inf made normalize scale every term to 0: a bare center candidate
    with pytest.raises(ValueError, match=r"lambda1, lambda2 must be finite, got \("):
        parse_system(f"p 2\nq 3\n{line}\ny 1 3 0.3\n")


@pytest.mark.parametrize("make, name", [
    (lambda: WeightedField(2.5, 3), "p"),
    (lambda: WeightedField(2.0, 3.0), "p"),  # an integral float is a float all the same
    (lambda: WeightedField(2, np.float64(3.0)), "q"),
    (lambda: Monomial(1.5, 0, 1.0), "k"),
    (lambda: Monomial(1, "2", 1.0), "j"),
], ids=["p-2.5", "p-2.0", "q-float64", "k-1.5", "j-str"])
def test_a_non_integer_weight_or_exponent_is_refused_by_name(make, name):
    # refused at construction, before a float weight reaches default_order or a jet division
    with pytest.raises(ValueError, match=rf"^{name} must be an integer, got "):
        make()


@pytest.mark.parametrize("make", [
    lambda: WeightedField(2, 3, lambda1="2.0"), lambda: Monomial(1, 0, "0.5"),
], ids=["lambda1", "c"])
def test_a_coefficient_given_as_text_is_not_read_as_a_number(make):
    # the finiteness checks come before the conversion to float, which would read "2.0"
    with pytest.raises(TypeError):
        make()


def test_numpy_numbers_are_stored_as_python_ones():
    f = WeightedField(np.int64(2), np.int32(3), lambda1=np.float64(2.0),
                      x_terms=(Monomial(np.int64(5), np.uint8(0), np.float32(0.5)),))
    assert [type(x) for x in (f.p, f.q, f.lambda1, f.lambda2)] == [int, int, float, float]
    (t,) = f.x_terms
    assert (type(t.k), type(t.j), type(t.c)) == (int, int, float)
    # eq325_field builds its coefficients in numpy: its repr shows plain numbers
    field = eq325_field(np.float64(1.22e-08), np.float64(2.41e-04))
    assert "np." not in repr(field) and "float64" not in repr(field)
    assert all(type(t.c) is float for t in field.x_terms + field.y_terms)


def test_validate_names_every_violated_rule():
    f = field23()
    bad = WeightedField(
        p=2, q=3, lambda1=-1.0,
        x_terms=f.x_terms + (Monomial(1, 1, 1.0), Monomial(0, 3, 0.1)),
        y_terms=f.y_terms,
    )
    with pytest.raises(InvalidFieldError) as info:
        require_valid(bad)
    assert str(info.value) == (
        "field violates weighted-homogeneity: "
        "positive-lambda, leading-degeneracy at (0,3), weight-bound at (1,1)"
    )


@pytest.mark.parametrize(
    "line", ["lambda1 0", "lambda1 -0.0", "lambda2 0", "lambda2 -0.0"]
)
def test_explicit_zero_lambda_is_kept_and_rejected(line):
    f = parse_system(f"p 2\nq 3\n{line}\n")
    assert 0.0 in (f.lambda1, f.lambda2)
    with pytest.raises(InvalidFieldError, match=f"weighted-homogeneity: {RULE_POSITIVE_LAMBDA}$"):
        require_valid(f)


def test_normalize_sets_leading_coefficients():
    f = field23(lambda1=5.0, lambda2=0.7)
    res = normalize(f)
    assert res.field.normalized
    assert res.field.lambda1 == pytest.approx(2.0)
    assert res.field.lambda2 == pytest.approx(3.0)


def test_normalize_preserves_dynamics_up_to_scaling():
    f = field23(lambda1=5.0, lambda2=0.7, a50=0.4, b41=-1.2)
    res = normalize(f)
    x, y = 0.31, -0.17
    u, v = f(res.scale_x * x, res.scale_y * y)
    un, vn = res.field(x, y)
    assert un == pytest.approx(res.time_scale / res.scale_x * u, rel=1e-13)
    assert vn == pytest.approx(res.time_scale / res.scale_y * v, rel=1e-13)


def test_normalize_rejects_nonpositive_lambda():
    with pytest.raises(InvalidFieldError, match=RULE_POSITIVE_LAMBDA):
        normalize(field23(lambda1=-1.0))


def test_parse_format_round_trip():
    f = field23(a50=0.25, b13=-1.5)
    g = parse_system(format_system(f))
    assert g == f


MONOMIALS = st.builds(
    Monomial,
    st.integers(0, 8),
    st.integers(0, 8),
    st.floats(-1e6, 1e6),  # bounded: duplicate (k, j) terms are summed
)


@settings(deadline=None)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.none() | st.floats(allow_nan=False),
    st.none() | st.floats(allow_nan=False),
    st.lists(MONOMIALS, max_size=6),
    st.lists(MONOMIALS, max_size=6),
)
def test_parse_format_round_trip_property(p, q, lam1, lam2, xs, ys):
    build = partial(WeightedField, p=p, q=q, lambda1=lam1, lambda2=lam2,
                    x_terms=tuple(xs), y_terms=tuple(ys))
    if any(v is not None and not math.isfinite(v) for v in (lam1, lam2)):
        with pytest.raises(ValueError, match="lambda1, lambda2 must be finite"):
            build()
        return
    f = build()
    assert parse_system(format_system(f)) == f


def test_parse_reports_line_numbers():
    text = "p 2\nq 3\nx 5 0 1.0\nx nonsense\n"
    with pytest.raises(InvalidFieldError, match="line 4"):
        parse_system(text)


@pytest.mark.parametrize(
    "text, message",
    [
        ("p 2 3\nq 3\n", "line 1: 'p 2 3': p takes 1 value"),
        ("p 2\nq 3\nx 2 2 0.5 junk\n", "line 3: 'x 2 2 0.5 junk': x takes 3 value"),
        ("p 2\nq 3\ny 4 1\n", "line 3: 'y 4 1': y takes 3 value"),
        ("p 2\nq\n", "line 2: 'q': q takes 1 value"),
        ("p 2\nq 3\np 4\n", "line 3: 'p 4': p is already set"),
        ("p 2\nq 3\nQ 5\n", "line 3: 'Q 5': q is already set"),
        ("p 2\nq 3\nlambda1 1\nlambda1 2\n", "line 4: 'lambda1 2': lambda1 is already set"),
        ("p 2\nq 3\nlambda2 1\nlambda2 1\n", "line 4: 'lambda2 1': lambda2 is already set"),
    ],
)
def test_parse_rejects_extra_tokens_and_repeated_scalars(text, message):
    with pytest.raises(InvalidFieldError) as info:
        parse_system(text)
    assert str(info.value).startswith(message)


def test_parse_rejects_degree_cap_directive():
    with pytest.raises(InvalidFieldError, match="line 3.*unknown directive"):
        parse_system("p 2\nq 3\ndegree_cap 5\n")


def test_parse_requires_weights():
    with pytest.raises(InvalidFieldError):
        parse_system("x 5 0 1.0\n")


def test_parse_comments_and_defaults():
    f = parse_system("# demo\np 2\nq 3  # trailing\nx 5 0 1.0\ny 4 1 1.0\n")
    assert f.lambda1 == 2.0 and f.lambda2 == 3.0
    assert len(f.x_terms) == 1 and len(f.y_terms) == 1


def test_load_system(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text(format_system(field23()), encoding="utf-8")
    assert load_system(path) == field23()


def test_divergence_terms_of_hamiltonian_cancel():
    # dx/dt = -dH/dy, dy/dt = dH/dx for H = x**6/2 + y**4/2 + c x**5 y
    c = 0.8
    f = WeightedField(
        p=2, q=3,
        x_terms=(Monomial(5, 0, -c),),
        y_terms=(Monomial(4, 1, 5 * c),),
    )
    assert all(abs(v) < 1e-15 for v in f.divergence_terms().values())
