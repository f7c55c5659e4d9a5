import numpy as np
import pytest

from qhfocus import (Monomial, WeightedField, alternation_search, find_cycles, flow, focal_values,
                     polar)
from qhfocus.casestudy import eq325_field, eq329_weighted, field23
from qhfocus.cycles import closure_error
from qhfocus.errors import AlternationError, InvalidFieldError, StiffnessError
from qhfocus.fields import normalize
from qhfocus.flow import return_map, section_return
from qhfocus.polar import PolarRHS


def test_center_yields_no_cycles():
    b41, b13 = 1.0, 0.4
    center = field23(a22=-1.5 * b13, a50=-b41 / 5, b13=b13, b41=b41)
    result = find_cycles("polar", center, 0.02, 0.3, grid_n=16, tol=1e-12)
    assert result.cycles == []


def hopf(eps):
    """x' = -y + eps x - x (x^2+y^2), y' = x + eps y - y (x^2+y^2): cycle at sqrt(eps)."""
    return lambda x, y: (
        -y + eps * x - x * (x * x + y * y),
        x + eps * y - y * (x * x + y * y),
    )


def hopf_field(eps):
    """``hopf(eps)`` as a 1:1 weighted field: eps (x, y) sits at the leading weight."""
    return WeightedField(
        p=1, q=1,
        x_terms=(Monomial(1, 0, eps), Monomial(3, 0, -1.0), Monomial(1, 2, -1.0)),
        y_terms=(Monomial(0, 1, eps), Monomial(2, 1, -1.0), Monomial(0, 3, -1.0)),
    )


def test_hopf_field_is_the_hopf_system():
    for x, y in ((0.3, -0.1), (0.05, 0.2), (-0.4, 0.4)):
        assert hopf_field(0.04)(x, y) == pytest.approx(hopf(0.04)(x, y), rel=1e-14)


@pytest.mark.parametrize("eps", [0.01, 0.04])
def test_hopf_field_polar_scan_and_strong_focus(eps):
    # dr/dtheta = r (eps - r**2): a stable cycle at sqrt(eps), nu_1(2*pi) = exp(2*pi*eps)
    result = find_cycles("polar", hopf_field(eps), 0.02, 0.9, grid_n=24, tol=1e-12)
    (cycle,) = result.cycles
    assert cycle.stability == "stable"
    # brentq stops within xtol = tol * max(1, b) = 1e-12 (measured: 9e-15 at most)
    assert abs(cycle.h_star - np.sqrt(eps)) <= 1e-12
    rep = focal_values(hopf_field(eps))
    assert (rep.verdict, rep.first_nonzero_index) == ("strong-focus", 1)
    assert rep.nu(1) == pytest.approx(np.exp(2 * np.pi * eps), rel=1e-12)


@pytest.mark.parametrize("eps", [0.04, 2.0, -2.0])
def test_hopf_field_return_map_is_the_closed_form(eps):
    # r' = r (eps - r**2) at theta' = 1: 1/r**2 = 1/eps + (1/h**2 - 1/eps) e**(-2 eps theta).
    # At |eps| = 2 the radius moves by up to e**(4 pi) over the turn, where
    # Newton's method on the whole turn fails and the panels run in halves
    radii = np.array([0.01, 0.1, 0.5, 2.0])
    exact = (1 / eps + (1 / radii**2 - 1 / eps) * np.exp(-4 * np.pi * eps)) ** -0.5
    turn = return_map(PolarRHS(hopf_field(eps)), radii, tol=1e-12)
    assert np.all(np.abs(turn - exact) <= 1e-12 * np.maximum(1.0, exact))


def test_damped_polar_scan_matches_the_cartesian_reference():
    # criterion 10's damped field: the polar chart and the section return agree
    field = eq329_weighted(
        a50=0.0, b41=1.0, sigma=0.1, delta0=6.70e-8, delta1=2.462e-4, delta2=2.721e-2
    )
    polar, cartesian = (
        find_cycles(backend, field, 0.01, 0.45, grid_n=64, tol=1e-13, noise_floor=1e-11)
        for backend in ("polar", "cartesian")
    )
    assert [c.stability for c in polar.cycles] == ["unstable", "stable", "unstable"]
    assert [c.stability for c in cartesian.cycles] == ["unstable", "stable", "unstable"]
    for a, b in zip(polar.cycles, cartesian.cycles):
        assert abs(a.h_star - b.h_star) <= 1e-6


def test_hopf_family_cycle_amplitude_scaling():
    amplitudes = []
    eps_values = (0.01, 0.04)
    for eps in eps_values:
        result = find_cycles("cartesian", hopf(eps), 0.02, 0.9, grid_n=24, tol=1e-12)
        assert len(result.cycles) == 1
        assert result.cycles[0].stability == "stable"
        amplitudes.append(result.cycles[0].h_star)
        assert result.cycles[0].h_star == pytest.approx(np.sqrt(eps), rel=1e-6)
    slope = np.log(amplitudes[1] / amplitudes[0]) / np.log(eps_values[1] / eps_values[0])
    assert slope == pytest.approx(0.5, abs=0.1)


def test_each_cycle_reports_its_displacement_evaluations(monkeypatch):
    # grid_n samples, then per root the points brentq and the residual add
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return section_return(*args, **kwargs)

    monkeypatch.setattr(flow, "section_return", counted)
    for eps in (0.01, 0.04):
        calls.clear()
        result = find_cycles("cartesian", hopf(eps), 0.02, 0.9, grid_n=24, tol=1e-12)
        assert len(result.cycles) == 1
        assert len(calls) == result.grid_n + sum(c.evals for c in result.cycles)
        assert all(c.evals <= 12 for c in result.cycles)
        assert result.grid_s > 0 and result.refine_s > 0


def test_polar_scan_integrates_its_grid_in_one_solve(monkeypatch):
    # the grid is one array call; brentq then refines each root point by point
    radii = []

    def counted(rhs, h, *args, **kwargs):
        radii.append(np.size(h))
        return return_map(rhs, h, *args, **kwargs)

    monkeypatch.setattr(flow, "return_map", counted)
    result = find_cycles(
        "polar", eq325_field(1.22e-08, 2.41e-04), 0.03, 0.45, grid_n=16, tol=1e-13,
        noise_floor=1e-12,
    )
    assert len(result.cycles) == 2
    assert radii[0] == result.grid_n
    assert radii[1:] == [1] * sum(c.evals for c in result.cycles)
    assert result.grid_s > 0 and result.refine_s > 0


def test_criterion_8_roots_are_the_series_roots():
    # the series sum nu_k h**k with dps-30 nu has the real roots 0.0894151 and
    # 0.2902039 for every K from 13 to 15
    scan = find_cycles("polar", eq325_field(1.22167735e-08, 2.40634043e-04), 0.03, 0.45,
                       grid_n=64, tol=1e-13, noise_floor=1e-12)
    assert [c.h_star for c in scan.cycles] == pytest.approx([0.0894151, 0.2902039], abs=1e-6)


def test_scan_never_integrates_a_point_twice(monkeypatch):
    # brentq starts from the bracket ends, which the grid has already integrated
    starts = []

    def recorded(system, x0, *args, **kwargs):
        starts.append(x0)
        return section_return(system, x0, *args, **kwargs)

    monkeypatch.setattr(flow, "section_return", recorded)
    result = find_cycles("cartesian", hopf(0.01), 0.02, 0.9, grid_n=24, tol=1e-12)
    (cycle,) = result.cycles
    assert starts.count(cycle.bracket[0]) == starts.count(cycle.bracket[1]) == 1
    assert len(set(starts)) == len(starts)


def test_displacement_sign_flips_across_cycle():
    rhs = hopf(0.01)
    inner = section_return(rhs, 0.05, tol=1e-12).x - 0.05
    outer = section_return(rhs, 0.3, tol=1e-12).x - 0.3
    assert inner > 0 > outer


def test_cycle_scan_is_recorded():
    f = field23(0.5, 1.0, -0.3, 1.0)
    result = find_cycles("polar", f, 0.05, 0.2, grid_n=16, tol=1e-12)
    assert np.shape(result.scan) == (16, 2)
    assert [h for h, _ in result.scan] == pytest.approx(np.geomspace(0.05, 0.2, 16))


def test_bisection_stops_at_float_spacing():
    # tol * max(1, hi) = 1e-17 lies below the float spacing near the damped
    # cycle at x ~ 0.1009, so the root finder must stop on its own floor
    damped = eq329_weighted(
        a50=0.0, b41=1.0, sigma=0.1, delta0=6.70e-8, delta1=2.46e-4, delta2=2.72e-2
    )
    result = find_cycles("cartesian", damped, 0.09, 0.11, grid_n=16, tol=1e-17)
    assert len(result.cycles) == 1
    assert result.cycles[0].h_star == pytest.approx(0.10086, abs=1e-4)


def test_cartesian_scan_builds_the_period_model_once(monkeypatch, fresh_caches):
    # section_return caps its time by the field's estimated period; a damped
    # field's PolarRHS checks Q_0 on 720 angles, so it is built once per field
    built = []
    init = PolarRHS.__init__

    def counted(self, field):
        built.append(field)
        init(self, field)

    monkeypatch.setattr(PolarRHS, "__init__", counted)
    damped = eq329_weighted(
        a50=0.0, b41=1.0, sigma=0.1, delta0=6.70e-8, delta1=2.46e-4, delta2=2.72e-2
    )
    result = find_cycles("cartesian", damped, 0.09, 0.11, grid_n=16, tol=1e-12)
    assert len(result.cycles) == 1
    assert result.grid_n + result.cycles[0].evals > 16
    assert len(built) == 1


def test_cartesian_scan_normalizes_each_field_once(monkeypatch, fresh_caches, unnormalized):
    # section_return reads scale_x and time_scale from the field's period model,
    # so the 16 grid points of a scan and its refinement share one normalize
    calls = []

    def counted(field):
        calls.append(field)
        return normalize(field)

    for module in (flow, polar):
        monkeypatch.setattr(module, "normalize", counted)
    damped = eq329_weighted(
        a50=0.0, b41=1.0, sigma=0.1, delta0=6.70e-8, delta1=2.46e-4, delta2=2.72e-2
    )
    for field in (damped, unnormalized(damped, 0.788, 1.92)):
        calls.clear()
        find_cycles("cartesian", field, 0.09, 0.11, grid_n=16, tol=1e-12)
        assert calls == [field]


def test_closure_error_on_unnormalized_center(unnormalized):
    # a Hamiltonian center closes at every amplitude, in any coordinates
    b41, b13 = 1.0, 0.4
    center = unnormalized(field23(a22=-1.5 * b13, a50=-b41 / 5, b13=b13, b41=b41), 0.788, 13.92)
    for h in (0.1, 0.3):
        assert closure_error(center, h, center.p) <= 1e-10


def test_closure_error_starts_on_the_cycle_of_an_unnormalized_field(unnormalized):
    # a polar h* is a normalized radius: its section point is scale_x * h***p,
    # where the two cycles close to 3.3e-16 and 5.2e-14; at h**p they read
    # 5.6e-13 and 2.8e-10
    field = unnormalized(eq325_field(1.22167735e-08, 2.40634043e-04), 0.788, 13.92)
    scan = find_cycles("polar", field, 0.03, 0.45, grid_n=64, tol=1e-13, noise_floor=1e-12)
    assert len(scan.cycles) == 2
    for c in scan.cycles:
        assert closure_error(field, c.h_star, field.p, tol=1e-13) <= 1e-12


def test_a_nonpositive_lambda_raises_one_type_on_every_path():
    # closure_error and section_return reach normalize first, which raised
    # NormalizationError where focal_values and find_cycles raised InvalidFieldError
    field = WeightedField(p=2, q=3, lambda1=-1.0, x_terms=field23(0.5, 1.0, -0.3, 1.0).x_terms)
    for call in (lambda: closure_error(field, 0.1), lambda: section_return(field, 0.01),
                 lambda: focal_values(field), lambda: find_cycles("polar", field, 0.05, 0.2)):
        with pytest.raises(InvalidFieldError, match="positive-lambda"):
            call()


def test_closure_error_reads_the_weight_from_the_field():
    field = field23(0.5, 1.0, -0.3, 1.0)
    assert closure_error(field, 0.1) == closure_error(field, 0.1, field.p)


def test_closure_error_rejects_another_weight():
    with pytest.raises(ValueError, match="weight p=2"):
        closure_error(field23(0.5, 1.0, -0.3, 1.0), 0.1, 1)


def test_alternation_search_realizes_sign_chain():
    def chain(eps):
        # cheap analytic stand-in with the casestudy structure
        return [0.1 * eps[0], -0.7 * eps[1], 2.0e-6]

    eps = alternation_search(
        chain, [1, -1, 1], box=[(1e-10, 1e-3), (1e-8, 1e-2)], gap=[100.0, 10.0]
    )
    values = chain(eps)
    assert values[0] > 0 > values[1]
    assert abs(values[0]) <= abs(values[1]) / 100
    assert abs(values[1]) <= abs(values[2]) / 10


def test_alternation_search_skips_trials_that_raise():
    raised = []

    def chain(eps):
        if abs(eps[0]) > 1e-5:
            raised.append(eps[0])
            raise StiffnessError("trial outside the solvable range")
        return [0.1 * eps[0], 2.0e-6]

    eps = alternation_search(chain, [1, 1], box=[(1e-10, 1e-3)], gap=[10.0])
    assert raised
    assert 0 < eps[0] <= 1e-5
    assert 0.1 * eps[0] <= 2.0e-6 / 10


def test_alternation_search_rejects_wrong_tail_sign():
    with pytest.raises(AlternationError):
        alternation_search(
            lambda e: [0.1 * e[0], -2.0e-6],
            [1, 1],
            box=[(1e-8, 1e-2)],
            gap=[10.0],
        )


def test_alternation_search_reports_the_checked_tail_entry():
    # the chain runs past the sign pattern: entry 2 is the checked tail, not entry 3
    with pytest.raises(AlternationError, match=r"tail has sign -1\.0, wanted 1"):
        alternation_search(
            lambda e: [1.0, 2.0, -3.0, 5.0], [1, -1, 1], box=[(1e-6, 1e-3)] * 2,
            gap=[10.0, 10.0],
        )


def test_alternation_search_validates_gaps():
    with pytest.raises(ValueError):
        alternation_search(
            lambda e: [e[0], 1.0], [1, 1], box=[(1e-8, 1e-2)], gap=[2.0]
        )


@pytest.mark.parametrize("scan_n", [0, -1])
def test_alternation_search_rejects_an_empty_scan(scan_n):
    # an empty scan raised AlternationError, blaming the box
    with pytest.raises(ValueError, match=f"scan_n must be at least 1, got {scan_n}"):
        alternation_search(
            lambda e: [0.1 * e[0], 2.0e-6], [1, 1], box=[(1e-10, 1e-3)], gap=[10.0], scan_n=scan_n
        )


def test_alternation_search_rejects_a_short_box():
    with pytest.raises(ValueError, match="need one box per tunable chain entry"):
        alternation_search(
            lambda e: [0.1 * e[0], -0.7 * e[1], 2.0e-6], [1, -1, 1],
            box=[(1e-8, 1e-2)], gap=[10.0, 10.0],
        )


@pytest.mark.parametrize("h_lo, h_hi, noise_floor, match", [
    (float("nan"), 0.2, None, "h_lo"),
    (0.05, float("nan"), None, "h_lo"),
    (0.05, float("inf"), None, "h_lo"),
    (0.05, 0.2, -1.0, "noise_floor"),
    (0.05, 0.2, float("nan"), "noise_floor"),
    (0.05, 0.2, float("inf"), "noise_floor"),
])
def test_invalid_scan_settings_rejected(h_lo, h_hi, noise_floor, match):
    # a negative floor used to pass, treating every sample as signed
    with pytest.raises(ValueError, match=match):
        find_cycles("polar", field23(0.5, 1.0, -0.3, 1.0), h_lo, h_hi, noise_floor=noise_floor)


def test_indeterminate_samples_are_recorded():
    f = field23(0.5, 1.0, -0.3, 1.0)
    signed = find_cycles("polar", f, 0.05, 0.2, grid_n=16, tol=1e-12, noise_floor=0.0)
    assert signed.indeterminate == []
    floor = sorted(abs(d) for _, d in signed.scan)[5]
    result = find_cycles("polar", f, 0.05, 0.2, grid_n=16, tol=1e-12, noise_floor=floor)
    assert result.scan == signed.scan
    assert result.indeterminate == [h for h, d in signed.scan if abs(d) < floor]
    assert len(result.indeterminate) == 5


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        find_cycles("spherical", field23(0.5, 1.0, -0.3, 1.0), 0.05, 0.2)
