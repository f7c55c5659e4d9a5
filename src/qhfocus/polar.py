"""Generalized-polar right-hand side for weighted-homogeneous fields.

With x = r**p cos(theta), y = r**q sin(theta) the flow becomes

    dr/dtheta = r * (sum_k R_k(theta) r**k) / (sum_k Q_k(theta) r**k),

where R_k / Q_k collect the weighted-homogeneous components of weight
2pq - q + k (x side) and 2pq - p + k (y side).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import InvalidFieldError, PolarChartError
from .fields import Monomial, WeightedField, require_valid

DENOM_FLOOR = 1e-12


class PolarRHS:
    """Cached polar components of a validated, normalized field."""

    def __init__(self, field: WeightedField):
        require_valid(field)
        if not field.normalized:
            raise InvalidFieldError(
                "polar analysis requires normalized leading coefficients; "
                "call fields.normalize first"
            )
        self.field = field
        p, q = field.p, field.q
        x_lead, y_lead = field.x_lead_weight, field.y_lead_weight
        k_max = 0
        by_k: dict[int, tuple[list[Monomial], list[Monomial]]] = {}
        for t in field.x_terms:
            k = t.weight(p, q) - x_lead
            by_k.setdefault(k, ([], []))[0].append(t)
            k_max = max(k_max, k)
        for t in field.y_terms:
            k = t.weight(p, q) - y_lead
            by_k.setdefault(k, ([], []))[1].append(t)
            k_max = max(k_max, k)
        self.k_max = k_max
        # (coefficient, power of cos, power of sin) per side and weight level 1..k_max
        self._levels = tuple(
            tuple(tuple((t.c, t.k, t.j) for t in side) for side in by_k.get(k, ((), ())))
            for k in range(1, k_max + 1)
        )
        self._safe_radius: float | None = None

    # -- component evaluation ------------------------------------------------

    def components(self, cos_t, sin_t) -> tuple[list, list]:
        """Lists [R_0..R_kmax], [Q_0..Q_kmax]; generic over the numeric type."""
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

    def __call__(self, theta: float, r):
        """dr/dtheta at (theta, r), for a float r or an array of radii (one component pass)."""
        R, Q = self.components(math.cos(theta), math.sin(theta))
        num = den = 0.0
        rk = 1.0
        for Rk, Qk in zip(R, Q):
            num += Rk * rk
            den += Qk * rk
            rk *= r
        small = abs(den) < DENOM_FLOOR
        if small.any() if isinstance(small, np.ndarray) else small:
            raise PolarChartError(
                f"polar chart breakdown at theta={theta!r}, r={r!r}: denominator {den!r}"
            )
        return r * num / den

    # -- validity neighborhood ------------------------------------------------

    def safe_radius(self) -> float:
        """Half the smallest positive radius where the denominator could vanish.

        Infinite when the denominator polynomial has no positive real root on
        a grid of 720 angles.
        """
        if self._safe_radius is not None:
            return self._safe_radius
        best = np.inf
        for theta in np.linspace(0.0, 2 * np.pi, 720, endpoint=False):
            R, Q = self.components(np.cos(theta), np.sin(theta))
            coeffs = np.array(Q[::-1], dtype=float)  # highest power first
            # negligible high-order coefficients poison the companion matrix
            scale = np.abs(coeffs).max()
            keep = np.nonzero(np.abs(coeffs) > 1e-14 * scale)[0]
            if keep.size == 0:
                continue
            coeffs = coeffs[keep[0]:]
            if coeffs.size < 2:
                continue
            roots = np.roots(coeffs)
            real = roots[np.abs(roots.imag) < 1e-9 * (1 + np.abs(roots.real))].real
            pos = real[real > 0]
            # accept only radii where the polynomial genuinely comes near zero
            for r in pos:
                mags = np.abs(coeffs) * r ** np.arange(coeffs.size - 1, -1, -1)
                if abs(np.polyval(coeffs, r)) <= 1e-8 * max(mags.max(), 1e-300):
                    best = min(best, r)
        self._safe_radius = float(best / 2.0)
        return self._safe_radius

    def check_radius(self, r: float):
        if abs(r) > self.safe_radius():
            raise PolarChartError(
                f"radius {r!r} outside the valid polar neighborhood "
                f"(limit {self.safe_radius()!r})"
            )


def rq_table(rhs: PolarRHS, thetas) -> np.ndarray:
    """Array with columns theta, R_0..R_kmax, Q_0..Q_kmax (CSV-ready)."""
    rows = []
    for theta in thetas:
        R, Q = rhs.components(np.cos(theta), np.sin(theta))
        rows.append([theta, *map(float, R), *map(float, Q)])
    return np.asarray(rows)
