"""High-accuracy quadrature helpers.

Two deliberately independent schemes are provided for every task:

* full-period integrals: uniform trapezoidal sums with node doubling
  (spectrally accurate for smooth periodic integrands) vs. composite
  Gauss-Legendre panels with panel doubling;
* cumulative integrals: a Fourier antiderivative built from one FFT of the
  integrand vs. cumulative integrals on Chebyshev panels (``spectral``)
  with panel doubling, interpolated between the nodes.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import spectral
from .errors import QuadratureError, SchemeDisagreementError, check_tol

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
    check_tol(tol)
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
        self._k = np.arange(1, len(coeffs))
        # int_0^t e^{ik s} ds = (e^{ikt} - 1)/(ik); rfft needs the 2*Re fold
        self._d = coeffs[1:] / (1j * self._k)
        self.n = n

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        d, m = self._d, theta.size
        if theta.ndim == 1 and np.array_equal(theta, np.linspace(0.0, TWO_PI, m, endpoint=False)):
            # the equispaced grid: e^{ik t_j} depends on k mod m only, so the
            # folded coefficients give sum_k d_k e^{ik t_j} by one inverse FFT
            folded = np.zeros(-(-(self._k[-1] + 1) // m) * m, dtype=complex)
            folded[self._k] = d
            osc = 2.0 * np.real(m * np.fft.ifft(folded.reshape(-1, m).sum(axis=0)) - d.sum())
        else:
            osc = 2.0 * np.real((np.exp(1j * np.outer(np.atleast_1d(theta), self._k)) - 1.0) @ d)
        out = self.mean * np.atleast_1d(theta) + osc
        return out if np.ndim(theta) else float(out[0])


class PanelAntiderivative:
    """F(theta) = int_0^theta g on [0, 2*pi], for g analytic on the turn, on Chebyshev panels.

    ``spectral.refine`` doubles the panels until F at the ends of the first
    panel set settles to 1e-13.  Between the nodes F is theta times the
    interpolant of F / theta, the mean of g over [0, theta], which is as
    smooth as g, so F(0) is 0.  theta outside [0, 2*pi] raises a ValueError.
    """

    def __init__(self, g: Callable[[np.ndarray], np.ndarray]):
        ends = np.linspace(0.0, TWO_PI, spectral.FIRST_PANELS + 1)[1:]

        def sweep(sets: spectral.PanelSets):
            for panels, theta in zip(sets, sets.split(sets.nodes[0])):
                mean = panels.integrate(np.asarray(g(theta), dtype=float))[0] / theta
                yield ends * panels.interpolate(mean, ends), mean

        self._panels, _, _, self._mean, _ = spectral.refine(
            sweep, 1e-13, [f"F({t:.4f})" for t in ends])

    def __call__(self, theta):
        theta = np.asarray(theta, dtype=float)
        out = theta * self._panels.interpolate(self._mean, theta)
        return out if theta.ndim else float(out)


def cross_checked(f: Callable, g: Callable, tol: float = 1e-12) -> QuadResult:
    """One full-period integral, as f by trapezoids and as g by Gauss panels.

    f and g evaluate the same integrand; a relative gap above 1e-10 raises.
    """
    t = trapezoid_periodic(f, tol)
    q = gauss_panels(g, tol)
    diff = abs(t.value - q.value) / max(1.0, abs(t.value))
    if diff > 1e-10:
        raise SchemeDisagreementError(
            f"independent schemes disagree: {t.value!r} vs {q.value!r}"
        )
    return QuadResult(t.value, max(t.error_estimate, diff), t.nodes_used + q.nodes_used)
