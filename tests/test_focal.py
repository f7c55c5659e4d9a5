from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qhfocus import Monomial, WeightedField, focal, focal_values, parity_survey
from qhfocus.casestudy import eq325_field, field23
from qhfocus.errors import InvalidFieldError, QhfocusError
from qhfocus.fields import parse_system, require_valid
from qhfocus.flow import DEFAULT_TOL, integrate_jet
from qhfocus.focal import (
    SurveyResult,
    classify,
    focal_jacobian,
    random_field,
    structural_center,
)
from qhfocus.polar import PolarRHS


def test_first_focal_value_sign_tracks_v2():
    plus = focal_values(field23(a22=0.5, a50=1.0, b13=-0.3, b41=1.0), K=3)
    minus = focal_values(field23(a22=0.5, a50=-1.0, b13=-0.3, b41=1.0), K=3)
    assert plus.verdict == "weak-focus" and plus.focus_order == 1
    assert plus.nu(2) > 0 > minus.nu(2)


def test_focal_values_rejects_a_low_weight_term():
    bad = parse_system("p 2\nq 3\nx 1 1 1.0\n")
    with pytest.raises(InvalidFieldError, match=r"weight-bound at \(1,1\)"):
        focal_values(bad)


def test_saddle_violates_monodromy():
    # x' = -y - 1.5 x, y' = x + 1.5 y: Q_0 = 1 + 3 cos sin dips to -1/2
    saddle = WeightedField(p=1, q=1, x_terms=(Monomial(1, 0, -1.5),), y_terms=(Monomial(0, 1, 1.5),))
    with pytest.raises(InvalidFieldError, match=r"monodromy: Q_0 = -0\.5 at theta = 2\.356194"):
        focal_values(saddle)


def test_leading_weight_terms_at_2_3_leave_nu_1_at_one():
    # R_0 of x**3 y and x**2 y**2 is odd under theta -> -theta and Q_0 even,
    # so the integral of R_0 / Q_0 over a turn vanishes: no damping at 2:3
    base = field23(0.5, 1.0, -0.3, 1.0)
    field = WeightedField(
        p=2, q=3,
        x_terms=base.x_terms + (Monomial(3, 1, 0.4),),
        y_terms=base.y_terms + (Monomial(2, 2, -0.7),),
    )
    rep = focal_values(field, integ_tol=1e-12)
    assert abs(rep.nu(1) - 1) <= 100 * 1e-12
    assert rep.verdict != "strong-focus"


def test_strong_focus_comes_before_the_higher_values():
    rep = classify([1.0 + 1e-6, 0.5, 0.0], 1, 1, integ_tol=1e-12)
    assert (rep.verdict, rep.first_nonzero_index, rep.focus_order) == ("strong-focus", 1, None)
    assert rep.nu(1) == 1.0 + 1e-6 and rep.values == (0.5, 0.0)
    assert classify([1.0 + 1e-12, 0.0, 0.5], 1, 1, integ_tol=1e-12).verdict == "weak-focus"


def test_focal_report_parity_and_indices():
    rep = focal_values(field23(0.5, 1.0, -0.3, 1.0), K=7)
    assert rep.parity_class == "odd-sum"
    assert rep.focal_indices == (2, 4, 6)
    assert rep.nu(2) == pytest.approx(rep.values[0])


def test_center_condition_reports_candidate():
    b41, b13 = 1.0, 0.4
    field = field23(a22=-1.5 * b13, a50=-b41 / 5, b13=b13, b41=b41)
    rep = focal_values(field, K=7)
    assert rep.verdict == "center-candidate"
    assert rep.first_nonzero_index is None


def test_hamiltonian_detection():
    b41, b13 = 1.0, 0.4
    ham = field23(a22=-1.5 * b13, a50=-b41 / 5, b13=b13, b41=b41)
    assert structural_center(ham)["hamiltonian"]
    assert not structural_center(field23(0.5, 1.0, -0.3, 1.0))["hamiltonian"]


def test_reversibility_detection():
    # a50 = b41 = 0 leaves X even and Y odd in x
    sym = field23(a22=0.7, a50=0.0, b13=0.3, b41=0.0)
    flags = structural_center(sym)
    assert flags["y-axis"]
    assert flags["certified"]


def test_report_gives_the_tolerance_the_solver_ran_at():
    # DOP853 runs at rtol 1e-13 at least: scipy rewrites a smaller one, with a warning
    rep = focal_values(field23(0.5, 1.0, -0.3, 1.0), K=5, integ_tol=1e-15)
    assert rep.integ_tol == 1e-13


@dataclass(frozen=True)
class ShiftedCheck:
    """The standard run against one started from a shifted series (weak equivalence)."""

    standard_first: int | None
    shifted_first: int | None
    value_residual: float | None

    @property
    def ok(self) -> bool:
        if self.standard_first is None:
            return self.shifted_first is None
        return self.shifted_first == self.standard_first and self.value_residual <= 1e-8


def shifted_focal_check(field: WeightedField, g: tuple[float, ...], K: int) -> ShiftedCheck:
    """Transport the initial series g(h) = h + c_2 h^2 + ... + c_K h^K of a normalized field.

    The first index where nu*_k(2pi) - nu*_k(0) resolves must be the standard
    run's first nonzero focal index, with the value there matching to 1e-8
    relative."""
    standard = focal_values(field, K=K)
    shifted = integrate_jet(PolarRHS(field), init=g, order=K).final
    # nu*_1 = nu_1, as g starts at h
    nu_star = [shifted[0], *(a - b for a, b in zip(shifted[1:], g[1:]))]
    first = classify(nu_star, field.p, field.q, DEFAULT_TOL).first_nonzero_index
    residual = None
    if first is not None and first == standard.first_nonzero_index:
        ref = standard.nu(first)
        residual = abs(nu_star[first - 1] - ref) / max(abs(ref), 1e-300)
    return ShiftedCheck(standard.first_nonzero_index, first, residual)


def test_shifted_series_preserves_first_focal_value():
    field = field23(0.5, 1.0, -0.3, 1.0)
    check = shifted_focal_check(field, g=(1.0, 0.3, 0.0, 0.0, 0.0), K=5)
    assert check.ok


def test_jacobian_of_eps_family_has_full_rank():
    family = lambda e: eq325_field(e[0], e[1])
    res = focal_jacobian(family, [0.0, 0.0], indices=(2, 4), K=5)
    assert res.rank == 2
    # eps1 drives nu_2, eps2 does not
    assert abs(res.matrix[0, 0]) > 1e3 * abs(res.matrix[0, 1])


def test_jacobian_and_survey_sum_the_integrator_work(monkeypatch):
    reports = []
    original = focal.focal_values

    def recording(*args, **kwargs):
        reports.append(original(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(focal, "focal_values", recording)
    res = focal_jacobian(lambda e: eq325_field(e[0], e[1]), [0.0, 0.0], indices=(2, 4), K=5)
    assert len(reports) == 4
    assert res.rhs_evals == sum(r.rhs_evals for r in reports) > 0
    assert res.steps == sum(r.steps for r in reports) > 0
    reports.clear()
    survey = parity_survey(2, 3, n_samples=4, seed=11)
    assert len(reports) == survey.n_samples - survey.n_skipped > 0
    assert survey.rhs_evals == sum(r.rhs_evals for r in reports)
    assert survey.steps == sum(r.steps for r in reports)


def test_jacobian_duplicated_parameter_rank_deficient():
    family = lambda e: eq325_field(e[0] + e[1], 0.1)
    res = focal_jacobian(family, [0.0, 0.0], indices=(2, 4), K=5)
    assert res.rank == 1


def test_random_field_admissibility():
    rng = np.random.default_rng(3)
    for p, q in ((1, 2), (2, 3)):
        f = random_field(p, q, rng)
        assert require_valid(f) is f


def test_parity_survey_small():
    res = parity_survey(2, 3, n_samples=6, seed=11)
    assert res.parity_ok
    assert res.expected_parity == "even"
    assert all(k % 2 == 0 for k in res.first_index_counts)


@pytest.mark.parametrize("p, q, parity", [(1, 1, "odd"), (1, 2, "even"), (2, 3, "even"), (3, 4, "even")])
def test_expected_parity_is_the_parity_of_the_focal_indices(p, q, parity):
    survey = SurveyResult(p, q, weight_gcd=1, n_samples=0, n_skipped=0, n_unresolved=0)
    indices = classify([1.0] + [0.0] * 6, p, q, integ_tol=1e-12).focal_indices
    assert survey.expected_parity == parity
    assert all(k % 2 == (parity == "odd") for k in indices)


def test_parity_survey_reduces_weights():
    res = parity_survey(2, 4, n_samples=4, seed=5)
    assert (res.p, res.q) == (1, 2)
    assert res.weight_gcd == 2


@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 3), (3, 4)])
@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    lam1=st.floats(0.1, 10.0),
    lam2=st.floats(0.1, 10.0),
)
def test_focal_values_invariant_under_rescaling(p, q, seed, lam1, lam2, unnormalized):
    field = random_field(p, q, np.random.default_rng(seed))
    scaled = unnormalized(field, lam1, lam2)
    try:
        ref = focal_values(field)
    except QhfocusError:
        with pytest.raises(QhfocusError):
            focal_values(scaled)
        return
    rep = focal_values(scaled)
    # normalize(scaled) equals field up to a few ulps per coefficient, so the
    # two runs differ by at most their integration errors: the local tolerance
    # 1e-12 summed over the ~100 accepted steps of one turn (measured: 1e-14)
    for a, b in zip(ref.values, rep.values):
        assert b == pytest.approx(a, rel=1e-10, abs=1e-10)
    first = ref.first_nonzero_index
    if first is not None and abs(ref.nu(first)) > 10 * ref.zero_tol:
        assert rep.first_nonzero_index == first
        assert np.sign(rep.nu(first)) == np.sign(ref.nu(first))


def test_extended_precision_agrees_with_double():
    field = field23(0.5, 1.0, -0.3, 1.0)
    dbl = focal_values(field, K=4, integ_tol=1e-13)
    ext = focal_values(field, K=4, precision="extended", dps=20)
    assert ext.nu(2) == pytest.approx(dbl.nu(2), rel=1e-10)
    # the report records the tolerance each solve ran at: 10**-dps for the Taylor solve
    assert (dbl.integ_tol, ext.integ_tol) == (1e-13, 1e-20)
    # DOP853 evaluates the RHS several times per step; the Taylor solve takes
    # M = ceil(-ln(1e-20) / 2 + 1) = 25 coefficients of the jet RHS per step
    assert dbl.rhs_evals > dbl.steps > 0
    assert ext.rhs_evals == 25 * ext.steps > 0


@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 3), (3, 4)])
@settings(max_examples=2, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_extended_precision_agrees_with_double_on_random_fields(p, q, seed):
    field = random_field(p, q, np.random.default_rng(seed))
    try:
        dbl = focal_values(field, integ_tol=1e-13)
    except QhfocusError:
        assume(False)
    ext = focal_values(field, precision="extended", dps=20)
    # the double solve's error is its local tolerance summed over the ~100
    # steps of one turn, about 1e-11 at most; measured on 24 fields at default
    # order: 1.6e-13 relative at most.  The dps-20 values are exact by comparison.
    for k in range(2, dbl.order + 1):
        assert abs(ext.nu(k) - dbl.nu(k)) <= 1e-10 * max(1.0, abs(dbl.nu(k)))
