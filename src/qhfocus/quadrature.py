"""High-accuracy quadrature helpers.

Two deliberately independent schemes are provided for every task:

* full-period integrals: uniform trapezoidal sums with node doubling
  (spectrally accurate for smooth periodic integrands) vs. composite
  Gauss-Legendre panels with panel doubling;
* cumulative integrals: a Fourier antiderivative built from one FFT of the
  integrand vs. an error-controlled ODE solve of F' = g.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.integrate import solve_ivp

from .errors import QuadratureError, StiffnessError

TWO_PI = 2 * np.pi


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    nodes_used: int


def _doubling(
    estimate: Callable[[int], float], n: int, n_max: int, tol: float, what: str
) -> QuadResult:
    """Double n until two successive estimates agree to tol (relative above 1)."""
    prev = None
    while n <= n_max:
        val = estimate(n)
        if prev is not None:
            err = abs(val - prev)
            if err <= tol * max(1.0, abs(val)):
                return QuadResult(val, err, n)
        prev = val
        n *= 2
    raise QuadratureError(f"{what} did not reach tol={tol!r} within {n_max} nodes")


def trapezoid_periodic(f: Callable[[np.ndarray], np.ndarray], tol: float = 1e-12) -> QuadResult:
    """Integral of f over one full period [0, 2*pi] by trapezoid doubling."""

    def estimate(n: int) -> float:
        return float(np.mean(f(np.linspace(0.0, TWO_PI, n, endpoint=False))) * TWO_PI)

    return _doubling(estimate, 32, 1 << 20, tol, "trapezoid")


def gauss_panels(f: Callable[[np.ndarray], np.ndarray], tol: float = 1e-12) -> QuadResult:
    """Integral of f over [0, 2*pi] by 20-node Gauss-Legendre panels, 8 to 4096 of them."""
    m = 20
    xg, wg = np.polynomial.legendre.leggauss(m)

    def estimate(nodes: int) -> float:
        edges = np.linspace(0.0, TWO_PI, nodes // m + 1)
        half = np.diff(edges) / 2.0
        mid = (edges[:-1] + edges[1:]) / 2.0
        xs = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
        ws = (half[:, None] * wg[None, :]).ravel()
        return float(np.dot(ws, f(xs)))

    return _doubling(estimate, 8 * m, 4096 * m, tol, "Gauss panels")


class FourierAntiderivative:
    """F(theta) = int_0^theta g, for smooth 2*pi-periodic g, via one FFT.

    The mean of g contributes a linear ramp; the oscillatory part is
    antidifferentiated exactly in Fourier space, so the evaluation is
    spectrally accurate at arbitrary theta.
    """

    def __init__(self, g: Callable[[np.ndarray], np.ndarray], n: int = 1024):
        xs = np.linspace(0.0, TWO_PI, n, endpoint=False)
        coeffs = np.fft.rfft(np.asarray(g(xs), dtype=float)) / n
        self.mean = float(coeffs[0].real)
        self._c = coeffs[1:]
        self._k = np.arange(1, len(coeffs))
        self.n = n

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        phase = np.exp(1j * np.outer(np.atleast_1d(theta), self._k))
        # int_0^t e^{ik s} ds = (e^{ikt} - 1)/(ik); rfft needs the 2*Re fold
        osc = 2.0 * np.real((phase - 1.0) @ (self._c / (1j * self._k)))
        out = self.mean * np.atleast_1d(theta) + osc
        return out if np.ndim(theta) else float(out[0])


class OdeAntiderivative:
    """F(theta) = int_0^theta g on [0, 2*pi] by a DOP853 solve at tolerance 1e-13."""

    def __init__(self, g: Callable[[float], float]):
        sol = solve_ivp(
            lambda t, y: [g(t)],
            (0.0, TWO_PI),
            [0.0],
            method="DOP853",
            rtol=1e-13,
            atol=1e-13,
            dense_output=True,
        )
        if not sol.success:
            raise StiffnessError(f"antiderivative solve failed: {sol.message}")
        self._sol = sol.sol

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = self._sol(theta.ravel())[0]
        return out.reshape(theta.shape) if theta.ndim else float(out[0])


def cross_checked(f: Callable[[np.ndarray], np.ndarray], tol: float = 1e-12) -> QuadResult:
    """Full-period integral by two independent schemes; raises on a relative gap above 1e-10."""
    t = trapezoid_periodic(f, tol)
    g = gauss_panels(f, tol)
    diff = abs(t.value - g.value) / max(1.0, abs(t.value))
    if diff > 1e-10:
        raise QuadratureError(
            f"independent schemes disagree: {t.value!r} vs {g.value!r}"
        )
    return QuadResult(t.value, max(t.error_estimate, diff), t.nodes_used + g.nodes_used)
