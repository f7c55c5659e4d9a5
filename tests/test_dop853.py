"""``dop853.brentq`` and the return map's lanes against scipy, their oracle.

``brentq`` runs scipy's compiled Brent routine behind the checks of scipy's
wrapper, so the checks are bitwise: the same points evaluated and the same
root, and the same errors with the same messages.  Each lane of the return
map, which runs on Chebyshev panels, is held to its tolerance against a
tight ``solve_ivp`` solve.
"""
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq as scipy_brentq

from qhfocus import cycles, dop853, flow
from qhfocus.casestudy import eq325_field, eq329_weighted
from qhfocus.fields import normalize
from qhfocus.focal import random_field
from qhfocus.polar import PolarRHS


def _both(f, a, b, finders=(scipy_brentq, dop853.brentq), **kwargs):
    """[scipy's, ``dop853.brentq``'s] outcome and evaluated points, for f on [a, b].

    An outcome is the root, or the type and text of the error raised."""
    out = []
    for finder in finders:
        points = []

        def counted(x):
            points.append(x)
            return f(x)

        try:
            result = finder(counted, a, b, **kwargs)
        except (ValueError, RuntimeError) as err:
            result = (type(err), str(err))
        out.append((result, points))
    return out


POLYNOMIALS = {
    "sqrt 2": (lambda x: x * x - 2, 0.0, 2.0),
    "cubic": (lambda x: x**3 - x - 1, 1.0, 2.0),
    "three roots": (lambda x: (x - 0.3) * (x + 2) * (x - 5), -1.0, 1.0),
    "triple root": (lambda x: (x - 0.5) ** 3, 0.0, 1.3),
    "root at a": (lambda x: x - 1, 1.0, 3.0),
    "root at b": (lambda x: x - 3, 1.0, 3.0),
    # f(a) * f(b) underflows to -0.0: the signs are read from the sign bits
    "tiny values": (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0),
}


@pytest.mark.parametrize("case", POLYNOMIALS)
@pytest.mark.parametrize("xtol", [2e-12, 1e-6, 1e-3])
def test_brentq_is_scipys(case, xtol):
    (ref, ref_points), (got, got_points) = _both(*POLYNOMIALS[case], xtol=xtol)
    assert got == ref and type(got) is type(ref)
    assert got_points == ref_points


@pytest.mark.parametrize(
    "f, a, b, xtol",
    [
        (lambda x: x * x + 1, -1.0, 1.0, 2e-12),  # one sign
        (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.5, 2e-12),  # NaN inside
        (lambda x: math.nan, 0.0, 1.0, 2e-12),  # NaN at a
        # a sign jump at 0, where the bracket must narrow to 1e-300: 100 iterations do not do it
        (lambda x: math.copysign(1.0, x), -1.0, 2.0, 1e-300),
        (lambda x: x * x - 2, 0.0, 2.0, 0.0),
    ],
    ids=["same signs", "nan inside", "nan at a", "not converged", "xtol 0"],
)
def test_brentq_raises_as_scipy_does(f, a, b, xtol):
    (ref, ref_points), (got, got_points) = _both(f, a, b, xtol=xtol)
    assert isinstance(ref, tuple), "scipy raised no error"
    assert got == ref
    assert got_points == ref_points


def test_a_scipy_without_the_file_raises_import_error_naming_it():
    with pytest.raises(ImportError, match=r"no module file .*/optimize/_no_such_module\.\*"):
        dop853._from_scipy("optimize/_no_such_module")


CRITERION_8 = dict(eps1=1.22167735e-08, eps2=2.40634043e-04)


def _compared(located: list):
    """A brentq that runs both and checks that they agree, recording each root."""

    def both(f, a, b, **kwargs):
        (ref, ref_points), (got, got_points) = _both(f, a, b, **kwargs)
        assert got == ref and got_points == ref_points
        located.append(got)
        return got

    return both


def test_brentq_refines_the_criterion_8_cycles_as_scipy_does(monkeypatch):
    # the displacement find_cycles refines one radius at a time, bracket ends included
    located = []
    monkeypatch.setattr(cycles, "brentq", _compared(located))
    scan = cycles.find_cycles("polar", eq325_field(**CRITERION_8), 0.03, 0.45, grid_n=64,
                              tol=1e-13, noise_floor=1e-12)
    assert located == [c.h_star for c in scan.cycles] and len(located) == 2


DAMPED = eq329_weighted(  # criterion 10's damped field, a strong focus
    a50=0.0, b41=1.0, sigma=0.1, delta0=6.70e-8, delta1=2.462e-4, delta2=2.721e-2
)


@pytest.mark.parametrize("field, h_lo, floor, count", [
    (eq325_field(**CRITERION_8), 0.03, 1e-12, 2), (DAMPED, 0.01, 1e-11, 3),
], ids=["criterion 8", "damped"])
def test_polar_roots_are_scipys_brentq_on_the_single_radius_map(field, h_lo, floor, count):
    # the grid's lanes choose the brackets, and each root is refined on one
    # map: the single-radius return map gives its bracket ends as well
    scan = cycles.find_cycles("polar", field, h_lo, 0.45, grid_n=64, tol=1e-13,
                              noise_floor=floor)
    rhs = PolarRHS(normalize(field).field)
    displacement = lambda h: flow.return_map(rhs, h, 1e-13) - h
    assert len(scan.cycles) == count
    for cycle in scan.cycles:
        a, b = cycle.bracket
        assert cycle.h_star == scipy_brentq(displacement, a, b, xtol=1e-13 * max(1.0, b))


def test_section_events_are_located_as_scipy_locates_them(monkeypatch):
    # every event root of a Cartesian solve, found by both on the step's interpolant
    located = []
    monkeypatch.setattr(dop853, "brentq", _compared(located))
    field = eq325_field(**CRITERION_8)
    for x0 in (0.01, 0.09, 0.29):
        flow.section_return(field, x0, tol=1e-13)
    flow.section_return(lambda x, y: (-y + 0.1 * x, x + 0.1 * y), 0.5, tol=1e-12)
    assert len(located) >= 4


def _assert_lanes_are_solve_ivp(rhs, radii, tol):
    """Every lane of ``return_map`` within effective_rtol(tol) max(1, |r|) of ``solve_ivp``.

    The reference runs DOP853 one radius at a time at rtol 2.3e-14 (just above
    scipy's floor of 100 eps) and atol 1e-16; the measured worst is 4.3e-15.
    """
    ref = np.array([
        solve_ivp(lambda t, y: [rhs(t, float(y[0]))], (0.0, 2 * np.pi), [h],
                  method="DOP853", rtol=2.3e-14, atol=1e-16).y[0, -1]
        for h in radii.tolist()
    ])
    bound = dop853.effective_rtol(tol) * np.maximum(1.0, np.abs(ref))
    assert np.all(np.abs(flow.return_map(rhs, radii, tol) - ref) <= bound)


def test_lanes_are_solve_ivp_on_the_criterion_8_grid():
    rhs = PolarRHS(normalize(eq325_field(**CRITERION_8)).field)
    _assert_lanes_are_solve_ivp(rhs, np.geomspace(0.03, 0.45, 64), 1e-13)


@pytest.mark.parametrize("p, q", [(1, 1), (1, 2), (2, 3), (3, 4)])
def test_lanes_are_solve_ivp_on_random_fields(p, q):
    for seed in range(3):
        rhs = PolarRHS(random_field(p, q, np.random.default_rng(seed)))
        h_max = min(0.3, rhs.safe_radius())
        radii = np.geomspace(h_max / 10, h_max, 8)
        for tol in (flow.DEFAULT_TOL, 1e-10):
            _assert_lanes_are_solve_ivp(rhs, radii, tol)


def test_lanes_are_solve_ivp_on_the_damped_grid():
    # on the grid of the damped field's polar scan
    _assert_lanes_are_solve_ivp(PolarRHS(DAMPED), np.geomspace(0.01, 0.45, 64), 1e-13)
