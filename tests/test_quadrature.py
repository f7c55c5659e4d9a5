import numpy as np
import pytest

from qhfocus.errors import QuadratureError
from qhfocus.quadrature import (
    FourierAntiderivative,
    OdeAntiderivative,
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


def test_cross_checked_agreement():
    res = cross_checked(lambda t: np.cos(2 * t) ** 4, 1e-12)
    assert res.value == pytest.approx(3 * np.pi / 4, abs=1e-12)


def test_cross_checked_detects_scheme_disagreement():
    calls = {"n": 0}

    def unstable(t):
        # deterministic but scheme-dependent: value depends on call pattern
        calls["n"] += 1
        return np.cos(t) ** 2 + (1e-6 if calls["n"] % 2 else 0.0)

    with pytest.raises(QuadratureError):
        cross_checked(unstable, 1e-12)


def test_fourier_antiderivative_matches_exact():
    f = lambda t: np.cos(t) + 0.5 * np.cos(3 * t) + 0.25
    F = FourierAntiderivative(f, n=256)
    exact = lambda t: np.sin(t) + np.sin(3 * t) / 6 + 0.25 * t
    for t in np.linspace(0.0, TWO_PI, 17):
        assert F(t) == pytest.approx(exact(t), abs=1e-12)


def test_ode_antiderivative_matches_fourier():
    f = lambda t: np.exp(np.cos(t)) * np.sin(2 * t)
    F1 = FourierAntiderivative(f, n=512)
    F2 = OdeAntiderivative(f)
    for t in np.linspace(0.3, TWO_PI, 9):
        assert F1(t) == pytest.approx(F2(t), abs=1e-11)


def test_quadrature_result_reports_nodes():
    res = trapezoid_periodic(lambda t: np.sin(3 * t) ** 2)
    assert res.nodes_used >= 32
    assert res.error_estimate >= 0.0
