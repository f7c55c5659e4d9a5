import json

import numpy as np
import pytest
from mpmath import mp

from qhfocus.casestudy import f2_integrand
from qhfocus.cli import main
from qhfocus.errors import QuadratureError
from qhfocus.quadrature import (
    FourierAntiderivative,
    PanelAntiderivative,
    cross_checked,
    gauss_panels,
    trapezoid_periodic,
)

TWO_PI = 2 * np.pi


def test_trapezoid_simple_integrals():
    assert trapezoid_periodic(lambda t: np.cos(t) ** 2).value == pytest.approx(np.pi, abs=1e-13)
    assert trapezoid_periodic(np.sin).value == pytest.approx(0.0, abs=1e-13)


def test_gauss_panels_simple_integrals():
    res = gauss_panels(lambda t: np.cos(t) ** 2)
    assert res.value == pytest.approx(np.pi, abs=1e-13)


def test_trapezoid_spectral_convergence():
    # smooth periodic integrand: error collapses once doubling kicks in
    f = lambda t: np.exp(np.sin(t))
    res = trapezoid_periodic(f, tol=1e-13)
    ref = gauss_panels(f, tol=1e-13)
    assert res.value == pytest.approx(ref.value, abs=1e-12)
    assert res.nodes_used <= 512


@pytest.mark.parametrize("scheme", [trapezoid_periodic, gauss_panels])
@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_nonpositive_tolerance_rejected(scheme, tol):
    # tol=0 used to pass on two bit-equal estimates, tol=-1 to run to the node cap
    with pytest.raises(ValueError, match="tolerance"):
        scheme(np.cos, tol=tol)


def test_cross_checked_agreement():
    f = lambda t: np.cos(2 * t) ** 4
    res = cross_checked(f, f, 1e-12)
    assert res.value == pytest.approx(3 * np.pi / 4, abs=1e-12)


def test_cross_checked_detects_scheme_disagreement():
    calls = {"n": 0}

    def unstable(t):
        # deterministic but scheme-dependent: value depends on call pattern
        calls["n"] += 1
        return np.cos(t) ** 2 + (1e-6 if calls["n"] % 2 else 0.0)

    with pytest.raises(QuadratureError):
        cross_checked(unstable, unstable, 1e-12)


def test_fourier_antiderivative_matches_exact():
    f = lambda t: np.cos(t) + 0.5 * np.cos(3 * t) + 0.25
    F = FourierAntiderivative(f, n=256)
    exact = lambda t: np.sin(t) + np.sin(3 * t) / 6 + 0.25 * t
    for t in np.linspace(0.0, TWO_PI, 17):
        assert F(t) == pytest.approx(exact(t), abs=1e-12)


@pytest.mark.parametrize("n", [64, 2048])
def test_fourier_antiderivative_on_the_trapezoid_grid_is_the_pointwise_sum(n):
    # the equispaced grid takes one inverse FFT, folding the coefficients on a
    # grid coarser than n; one angle at a time takes the outer-product sum
    g = lambda t: np.exp(np.sin(t)) / (2 + np.cos(3 * t)) ** 0.75
    F = FourierAntiderivative(g, n)
    for m in (8, 32, 48, 1024, 4096):
        grid = np.linspace(0.0, TWO_PI, m, endpoint=False)
        pointwise = np.array([F(t) for t in grid])
        assert np.max(np.abs(F(grid) - pointwise)) <= 1e-14


def test_ode_antiderivative_matches_fourier():
    f = lambda t: np.exp(np.cos(t)) * np.sin(2 * t)
    F1 = FourierAntiderivative(f, n=512)
    F2 = PanelAntiderivative(f)
    for t in np.linspace(0.3, TWO_PI, 9):
        assert F1(t) == pytest.approx(F2(t), abs=1e-11)


@pytest.mark.parametrize("theta", [-1.0, 10.0, TWO_PI + 1e-9, float("nan")])
def test_ode_antiderivative_rejects_arguments_outside_its_span(theta):
    # the panels cover [0, 2*pi] only: an ODE solve once gave -2.84e10 at -1
    # and -0.865 at 10 for sin 10 = -0.544, extrapolated without a warning
    F = PanelAntiderivative(np.cos)
    with pytest.raises(ValueError, match="outside the turn"):
        F(theta)
    with pytest.raises(ValueError, match="outside the turn"):
        F(np.array([0.5, theta]))
    assert F(0.0) == 0.0
    assert F(TWO_PI) == pytest.approx(0.0, abs=1e-12)


def test_panel_antiderivative_of_f2_is_the_mpmath_quadrature(tmp_path, capsys):
    # the Gauss side of IB nests f2 from the panels, the trapezoid side from
    # the Fourier antiderivative: both near the rounding floor, so quad's
    # two IB columns agree to it
    F = PanelAntiderivative(f2_integrand)
    thetas = [0.1, 1.0, 2.0, 3.5, 5.0, TWO_PI]
    with mp.workdps(30):
        def f2(t):
            c, s = mp.cos(t), mp.sin(t)
            return c**7 * s**2 * (2 * c**2 + 3 * s**2) / (c**6 + s**4) ** (mp.mpf(25) / 12)

        exact = [mp.quad(f2, mp.linspace(0, mp.mpf(t), 9)) for t in thetas]
        errors = [abs(float(F(t) - e)) for t, e in zip(thetas, exact)]
    assert max(errors) <= 1e-14
    assert np.array_equal(F(np.array(thetas)), [F(t) for t in thetas])
    out = tmp_path / "quad.txt"
    assert main(["quad", "--out", str(out)]) == 0
    ib = json.loads(out.with_suffix(".json").read_text())["integrals"]["IB"]
    assert abs(ib["gauss"] - ib["trapezoid"]) <= 1e-15


def test_quadrature_result_reports_nodes():
    res = trapezoid_periodic(lambda t: np.sin(3 * t) ** 2)
    assert res.nodes_used >= 32
    assert res.error_estimate >= 0.0
