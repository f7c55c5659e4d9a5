import numpy as np
import pytest

from qhfocus import casestudy, focal_values


def test_frozen_constants_match_fresh_computation():
    fresh = casestudy.compute_reference_constants(tol=1e-12)
    frozen = casestudy.reference_constants()
    for key, value in frozen.items():
        assert fresh[key] == pytest.approx(value, rel=1e-12)


def test_prefactor_combination_reproduces_printed_value():
    res = casestudy.verify_322()
    assert res.ok
    assert res.reading_used == "prefactors-once"
    assert res.combination_value == pytest.approx(casestudy.EQ322_TARGET, rel=1e-4)
    # the squared reading is wildly off; keeping both on record is the point
    assert abs(res.value_as_printed - casestudy.EQ322_TARGET) > 1e6


def test_predicted_v_zero_families():
    b41, b13 = 1.0, 0.4
    hamiltonian = casestudy.field23(a22=-1.5 * b13, a50=-b41 / 5, b13=b13, b41=b41)
    assert casestudy.predicted_V(hamiltonian)[0] == pytest.approx(0.0, abs=1e-15)
    symmetric = casestudy.field23(a22=0.7, a50=0.0, b13=0.3, b41=0.0)
    v2, v4, v6 = casestudy.predicted_V(symmetric)
    assert v2 == v4 == v6 == 0.0


def test_first_focal_value_ratio():
    ratios = casestudy.focal_ratio_constants()
    for a50, b41 in ((1.0, 1.0), (-0.4, 2.0), (0.3, -0.5)):
        field = casestudy.field23(a22=0.5, a50=a50, b13=-0.3, b41=b41)
        rep = focal_values(field, K=3, integ_tol=1e-13)
        v2 = 5 * a50 + b41
        assert rep.nu(2) == pytest.approx(ratios["nu2_over_V2"] * v2, rel=1e-9)


def test_second_focal_value_on_slice():
    ratios = casestudy.focal_ratio_constants()
    for a22, b13, b41 in ((0.5, 0.2, 1.0), (0.9, 0.1, 0.7)):
        field = casestudy.field23(a22=a22, a50=-b41 / 5, b13=b13, b41=b41)
        rep = focal_values(field, K=5, integ_tol=1e-13)
        v4 = -(5 * a22 - 3 * b13) * (2 * a22 + 3 * b13) * b41
        assert rep.nu(4) == pytest.approx(ratios["nu4_over_V4"] * v4, rel=1e-6)


def test_u2_closed_form_residuals():
    field = casestudy.field23(0.7, 1.0, -0.3, 1.0)
    residuals = casestudy.verify_u2(np.linspace(0.2, 6.0, 10), field)
    assert max(residuals) < 1e-10


def test_thm34_report():
    rep = casestudy.verify_thm34()
    assert rep.lambda12_max < 1e-10
    assert rep.ratio_spread < 1e-4
    assert rep.sigma_linearity_residual < 1e-6
    assert rep.matches_documented  # measured ratio = pi * 47/128


def test_eq329_damping_is_the_linear_term_at_the_leading_weight():
    # the damped system is the undamped field minus sigma * delta0 * (x, y)
    params = dict(a50=0.2, b41=1.0, sigma=0.1, delta1=0.01, delta2=0.02)
    w = casestudy.eq329_weighted(**params)
    d = casestudy.eq329_weighted(delta0=0.03, **params)
    for x, y in ((0.3, -0.1), (0.05, 0.2), (-0.4, 0.4)):
        u, v = w(x, y)
        assert d(x, y) == pytest.approx((u - 0.003 * x, v - 0.003 * y), rel=1e-14)
    assert w == casestudy.eq329_weighted(delta0=0.0, **params)
    for rep in (focal_values(d, K=3), focal_values(d, K=3, precision="extended", dps=20)):
        assert rep.verdict == "strong-focus"
        assert rep.nu(1) == pytest.approx(np.exp(-2 * np.pi * 0.003), rel=1e-12)


def test_eq325_field_focal_structure():
    rep = focal_values(casestudy.eq325_field(0.0, 0.0), K=7, integ_tol=1e-13)
    # on the organizing point only the third focal value survives
    assert abs(rep.nu(2)) < 1e-11 and abs(rep.nu(4)) < 1e-11
    assert rep.nu(6) > 0
