import numpy as np
import pytest

from qhfocus import Monomial, WeightedField, alternation_search, find_cycles, flow, focal_values
from qhfocus.casestudy import eq325_field, eq329_weighted, field23
from qhfocus.cycles import closure_error
from qhfocus.errors import AlternationError, StiffnessError
from qhfocus.flow import return_map, section_return


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


def test_closure_error_on_unnormalized_center(unnormalized):
    # a Hamiltonian center closes at every amplitude, in any coordinates
    b41, b13 = 1.0, 0.4
    center = unnormalized(field23(a22=-1.5 * b13, a50=-b41 / 5, b13=b13, b41=b41), 0.788, 13.92)
    for h in (0.1, 0.3):
        assert closure_error(center, h, center.p) <= 1e-10


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


def test_unknown_backend_rejected():
    with pytest.raises(ValueError):
        find_cycles("spherical", field23(0.5, 1.0, -0.3, 1.0), 0.05, 0.2)
