import math

import numpy as np
import pytest

from qhfocus import Monomial, WeightedField, find_cycles, focal_values
from qhfocus.casestudy import eq325_field, eq329_weighted
from qhfocus.errors import InvalidFieldError, PolarChartError
from qhfocus.fields import normalize
from qhfocus.flow import return_map
from qhfocus.focal import random_field
from qhfocus.polar import DENOM_FLOOR, PolarRHS, rq_table


def field23(a50=1.0, a22=0.5, b41=1.0, b13=-0.3):
    return WeightedField(
        p=2, q=3,
        x_terms=(Monomial(5, 0, a50), Monomial(2, 2, a22)),
        y_terms=(Monomial(4, 1, b41), Monomial(1, 3, b13)),
    )


def leading_field(p, q):
    return WeightedField(p=p, q=q, x_terms=(), y_terms=())


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 3), (3, 4)])
def test_leading_angular_components_closed_form(p, q):
    rhs = PolarRHS(leading_field(p, q))
    for theta in np.linspace(0.0, 2 * np.pi, 37):
        c, s = np.cos(theta), np.sin(theta)
        R, Q = rhs.components(c, s)
        r0 = c * s * (q * c ** (2 * q - 2) - p * s ** (2 * p - 2))
        q0 = p * q * (c ** (2 * q) + s ** (2 * p))
        assert R[0] == pytest.approx(r0, abs=1e-14)
        assert Q[0] == pytest.approx(q0, abs=1e-14)


@pytest.mark.parametrize("p,q", [(1, 1), (1, 2), (2, 3), (3, 4)])
def test_leading_denominator_positive(p, q):
    rhs = PolarRHS(leading_field(p, q))
    thetas = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)
    q0 = [rhs.components(np.cos(t), np.sin(t))[1][0] for t in thetas]
    assert min(q0) > 0.0


def test_perturbation_enters_higher_orders_only():
    rhs = PolarRHS(field23())
    lead = PolarRHS(leading_field(2, 3))
    c, s = np.cos(0.9), np.sin(0.9)
    R, Q = rhs.components(c, s)
    R0, Q0 = lead.components(c, s)
    assert R[0] == pytest.approx(R0[0], abs=1e-15)
    assert Q[0] == pytest.approx(Q0[0], abs=1e-15)
    assert any(abs(v) > 0 for v in R[1:])


def test_polar_rhs_matches_cartesian_flow_direction():
    f = field23()
    rhs = PolarRHS(f)
    for theta in (0.3, 1.1, 2.7, 4.0, 5.5):
        r = 0.21
        c, s = np.cos(theta), np.sin(theta)
        x, y = r**2 * c, r**3 * s
        u, v = f(x, y)
        # differentiate x = r**p cos, y = r**q sin along the orbit
        drdtheta = rhs(theta, r)
        # dtheta/dt from the y equation: v = q r**(q-1) r' s + r**q c theta'
        # eliminate time via the x equation instead and compare slopes
        dx_dtheta = 2 * r * c * drdtheta - r**2 * s
        dy_dtheta = 3 * r**2 * s * drdtheta + r**3 * c
        assert dx_dtheta * v == pytest.approx(dy_dtheta * u, rel=1e-10, abs=1e-14)


def test_weighted_scaling_identity():
    # the radial equation is invariant under (r, a_kj) -> (s r, s**(m-lead) a_kj)
    f = field23()
    s_fac = 0.7
    scaled = WeightedField(
        p=2, q=3,
        x_terms=tuple(
            Monomial(t.k, t.j, t.c * s_fac ** (9 - t.weight(2, 3))) for t in f.x_terms
        ),
        y_terms=tuple(
            Monomial(t.k, t.j, t.c * s_fac ** (10 - t.weight(2, 3))) for t in f.y_terms
        ),
    )
    rhs, rhs_s = PolarRHS(f), PolarRHS(scaled)
    for theta in (0.4, 1.9, 3.3, 5.1):
        r = 0.25
        assert rhs_s(theta, s_fac * r) == pytest.approx(
            s_fac * rhs(theta, r), rel=1e-12
        )


def test_unnormalized_field_is_charted_normalized():
    # the chart of a field with lambda off (p, q) is that of its normalized field, bitwise
    f = field23()
    skew = WeightedField(
        p=2, q=3, lambda1=5.0, lambda2=3.0, x_terms=f.x_terms, y_terms=f.y_terms
    )
    rhs, normalized = PolarRHS(skew), PolarRHS(normalize(skew).field)
    assert rhs.field == normalized.field and rhs.field.normalized
    for theta in (0.0, 0.4, 1.9, 3.3, 5.1):
        c, s = math.cos(theta), math.sin(theta)
        assert rhs.components(c, s) == normalized.components(c, s)
        assert rhs(theta, 0.2) == normalized(theta, 0.2)
    radii = np.array([0.05, 0.1, 0.2])
    assert return_map(rhs, 0.1, 1e-12) == return_map(normalized, 0.1, 1e-12)
    assert np.array_equal(return_map(rhs, radii, 1e-12), return_map(normalized, radii, 1e-12))


def test_low_weight_term_rejected():
    f = field23()
    bad = WeightedField(p=2, q=3, x_terms=f.x_terms + (Monomial(1, 1, 1.0),))
    with pytest.raises(InvalidFieldError, match=r"weight-bound at \(1,1\)"):
        PolarRHS(bad)


def test_chart_breakdown_and_radius_limit_raise():
    # Q = 1 - 5 cos(theta)**3 r vanishes first at r = 0.2, theta = 0
    rhs = PolarRHS(WeightedField(p=1, q=1, y_terms=(Monomial(2, 0, -5.0),)))
    assert rhs.safe_radius() == pytest.approx(0.1, rel=1e-12)
    with pytest.raises(PolarChartError, match="outside the valid polar neighborhood"):
        return_map(rhs, 0.15)
    with pytest.raises(PolarChartError, match="chart breakdown"):
        rhs(0.0, 0.2)


def test_one_lane_off_the_chart_stops_a_batch(monkeypatch):
    # Q = 1 - 5 cos(theta)**3 r: safe radius 0.1, denominator zero at r = 0.2, theta = 0
    rhs = PolarRHS(WeightedField(p=1, q=1, y_terms=(Monomial(2, 0, -5.0),)))
    with pytest.raises(PolarChartError, match="outside the valid polar neighborhood"):
        return_map(rhs, np.array([0.02, 0.05, 0.15]))
    # past the radius check, the sweep itself stops on the one lane's denominator
    monkeypatch.setattr(rhs, "check_radius", lambda r: None)
    with pytest.raises(PolarChartError, match="chart breakdown"):
        return_map(rhs, np.array([0.02, 0.05, 0.2]))


def test_safe_radius_positive_and_respected():
    rhs = PolarRHS(field23())
    r_safe = rhs.safe_radius()
    assert r_safe > 0.05
    rhs.check_radius(0.9 * r_safe)


def safe_radius_per_angle(rhs):
    """PolarRHS.safe_radius as one np.roots call per angle of its grid."""
    best = np.inf
    for theta in np.linspace(0.0, 2 * np.pi, 720, endpoint=False):
        R, Q = rhs.components(np.cos(theta), np.sin(theta))
        coeffs = np.array(Q[::-1], dtype=float)  # highest power first
        scale = np.abs(coeffs).max()
        keep = np.nonzero(np.abs(coeffs) > 1e-14 * scale)[0]
        if keep.size == 0:
            continue
        coeffs = coeffs[keep[0]:]
        if coeffs.size < 2:
            continue
        roots = np.roots(coeffs)
        real = roots[np.abs(roots.imag) < 1e-9 * (1 + np.abs(roots.real))].real
        for r in real[real > 0]:
            mags = np.abs(coeffs) * r ** np.arange(coeffs.size - 1, -1, -1)
            if abs(np.polyval(coeffs, r)) <= 1e-8 * max(mags.max(), 1e-300):
                best = min(best, r)
    return float(best / 2.0)


def _radius_fields():
    yield pytest.param(eq325_field(1.22e-08, 2.41e-04), id="eq325")
    # Q = 1 - 5 cos(theta)**3 r: safe radius 0.1
    yield pytest.param(WeightedField(p=1, q=1, y_terms=(Monomial(2, 0, -5.0),)), id="pole")
    for p, q in ((1, 1), (1, 2), (2, 3), (3, 4)):
        for seed in range(5):
            yield pytest.param(random_field(p, q, np.random.default_rng(seed)), id=f"{p}:{q}-{seed}")


@pytest.mark.parametrize("field", _radius_fields())
def test_batched_safe_radius_is_the_per_angle_roots(field):
    expect = safe_radius_per_angle(PolarRHS(field))
    assert PolarRHS(field).safe_radius().hex() == expect.hex()


def test_rq_table_shape():
    rhs = PolarRHS(field23())
    thetas = np.linspace(0.0, 2 * np.pi, 13)
    table = rq_table(rhs, thetas)
    assert table.shape[0] == 13
    assert table.shape[1] % 2 == 1  # theta plus paired R and Q columns
    assert np.allclose(table[:, 0], thetas)


def components_without_level_0(self, cos_t, sin_t):
    """PolarRHS.components before terms at the leading weight were allowed:
    the closed-form R_0, Q_0 of the leading part, then levels 1..k_max."""
    p, q = self.field.p, self.field.q
    c, s = cos_t, sin_t
    zero = 0 * c
    R = [c * s * (q * c ** (2 * q - 2) - p * s ** (2 * p - 2))]
    Q = [p * q * (c ** (2 * q) + s ** (2 * p))]
    for xs, ys in self._levels:
        xm = ym = zero
        for a, k, j in xs:
            xm = xm + a * c**k * s**j
        for a, k, j in ys:
            ym = ym + a * c**k * s**j
        R.append(c * xm + s * ym)
        Q.append(-q * s * xm + p * c * ym)
    return R, Q


@pytest.mark.parametrize(
    "field, h_hi",
    [
        *((random_field(p, q, np.random.default_rng(0)), 0.1) for p, q in ((1, 1), (1, 2), (2, 3), (3, 4))),
        (eq325_field(1.22e-08, 2.41e-04), 0.45),
        (eq329_weighted(a50=0.0, b41=1.0, sigma=0.1, delta1=2.46e-4, delta2=2.72e-2), 0.45),
    ],
    ids=["1:1", "1:2", "2:3", "3:4", "eq325", "eq329"],
)
def test_fields_without_leading_weight_terms_are_bitwise_unchanged(field, h_hi, monkeypatch):
    def run():
        scan = find_cycles("polar", field, 0.01, h_hi, grid_n=16, tol=1e-13).scan
        return focal_values(field), scan

    with monkeypatch.context() as m:
        m.setattr(PolarRHS, "components", components_without_level_0)
        before = run()
    assert run() == before


def call_by_components(rhs, theta, r):
    """dr/dtheta summed from the component lists, as PolarRHS.__call__ was written."""
    R, Q = rhs.components(math.cos(theta), math.sin(theta))
    num = den = 0.0
    rk = 1.0
    for Rk, Qk in zip(R, Q):
        num += Rk * rk
        den += Qk * rk
        rk *= r
    if abs(den) < DENOM_FLOOR:
        raise PolarChartError(
            f"polar chart breakdown at theta={theta!r}, r={r!r}: denominator {den!r}"
        )
    return r * num / den


def _rhs_fields():
    for p, q in ((1, 1), (1, 2), (2, 3), (3, 4), (2, 5)):
        for seed in range(2):
            yield pytest.param(random_field(p, q, np.random.default_rng(seed)), id=f"{p}:{q}-{seed}")
    yield pytest.param(leading_field(2, 3), id="leading-only")
    yield pytest.param(field23(), id="2:3")
    yield pytest.param(eq325_field(1.22e-08, 2.41e-04), id="eq325")
    # levels 1 and 3 are empty: their R_k and Q_k are the recorded zero
    yield pytest.param(WeightedField(p=1, q=1, x_terms=(Monomial(3, 0, -0.4),),
                                     y_terms=(Monomial(0, 5, 0.3),)), id="empty-levels")
    # terms at the leading weight, folded into R_0 and Q_0
    yield pytest.param(eq329_weighted(-0.2, 1.0, 0.3, 0.1, delta0=0.02), id="damped")
    yield pytest.param(WeightedField(p=1, q=1, x_terms=(Monomial(1, 0, 0.04), Monomial(3, 0, -1.0)),
                                     y_terms=(Monomial(0, 1, 0.04), Monomial(0, 3, -1.0))),
                       id="hopf")


@pytest.mark.parametrize("field", _rhs_fields())
def test_compiled_rhs_is_bitwise_the_component_sum(field):
    rhs = PolarRHS(field)
    h = min(0.3, rhs.safe_radius())
    radii = np.linspace(-h, h, 7)
    for theta in (0.0, 0.3, np.pi / 2, 2.0, np.pi, 4.4, 2 * np.pi, -1.0, 7.5):
        for r in radii.tolist():
            assert np.float64(rhs(theta, r)).tobytes() == np.float64(
                call_by_components(rhs, theta, r)).tobytes()


def test_compiled_rhs_keeps_the_chart_guard():
    # Q = 1 - 5 cos(theta)**3 r vanishes at r = 0.2, theta = 0
    rhs = PolarRHS(WeightedField(p=1, q=1, y_terms=(Monomial(2, 0, -5.0),)))
    with pytest.raises(PolarChartError) as expected:
        call_by_components(rhs, 0.0, 0.2)
    with pytest.raises(PolarChartError) as err:
        rhs(0.0, 0.2)
    assert str(err.value) == str(expected.value)


def test_scalar_rhs_records_the_components_once(monkeypatch):
    calls = []
    components = PolarRHS.components

    def counted(self, c, s):
        calls.append(c)
        return components(self, c, s)

    rhs = PolarRHS(field23())
    rhs.safe_radius()  # the radius check's own component passes
    monkeypatch.setattr(PolarRHS, "components", counted)
    rhs(0.3, 0.1)
    rhs(1.7, 0.05)
    assert len(calls) == 1
