"""Generalized-polar right-hand side for weighted-homogeneous fields.

With x = r**p cos(theta), y = r**q sin(theta) the flow becomes

    dr/dtheta = r * (sum_k R_k(theta) r**k) / (sum_k Q_k(theta) r**k),

where R_k / Q_k collect the weighted-homogeneous components of weight
2pq - q + k (x side) and 2pq - p + k (y side).  R_0 and Q_0 hold the leading
part and any terms at its weight.
"""
from __future__ import annotations

import math

import numpy as np

from . import jets
from .errors import InvalidFieldError, PolarChartError
from .fields import RULE_MONODROMY, Monomial, WeightedField, require_valid

DENOM_FLOOR = 1e-12
# angles at which Q_0 > 0 and the denominator's radial roots are checked
_CIRCLE = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)


class PolarRHS:
    """Cached polar components of a validated, normalized field with Q_0 > 0."""

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
        # terms at the leading weight: summed as the first level, then folded into R_0, Q_0
        self._level0 = 0 in by_k
        # (coefficient, power of cos, power of sin) per side and weight level
        self._levels = tuple(
            tuple(tuple((t.c, t.k, t.j) for t in side) for side in by_k.get(k, ((), ())))
            for k in range(0 if self._level0 else 1, k_max + 1)
        )
        self._safe_radius: float | None = None
        self._rhs = None  # __call__'s straight-line code, compiled on the first call
        if self._level0:
            q0 = self.components(np.cos(_CIRCLE), np.sin(_CIRCLE))[1][0]
            if q0.min() <= 0:
                raise InvalidFieldError(
                    f"field violates {RULE_MONODROMY}: Q_0 = {q0.min():.3g} at theta = "
                    f"{_CIRCLE[q0.argmin()]:.6f}, so the angle does not turn monotonically"
                )

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
        if self._level0:
            R[0] += R.pop(1)
            Q[0] += Q.pop(1)
        return R, Q

    def __call__(self, theta: float, r):
        """dr/dtheta at (theta, r), for a float r or elementwise for an array of radii."""
        if self._rhs is None:
            self._rhs = self._compile()
        return self._rhs(theta, r)

    def _compile(self):
        """``components`` recorded once as straight-line code: f(theta, r) = dr/dtheta.

        f adds R_k r**k and Q_k r**k into num and den in order of k, with
        r**k built by repeated products, on a float r or elementwise on an
        array, and returns r * num / den bitwise as the component lists give
        it (the recorder may swap a product's factors and fold the zero
        0 * c, which no nonzero sum sees)."""
        program, (R, Q) = jets.record(self.components, "c", "s")
        lines = ["c, s = cos(theta), sin(theta)", "z = 0 * c", *jets.source(program),
                 "num = den = 0.0", "rk = 1.0"]
        for k, (Rk, Qk) in enumerate(zip(R, Q)):
            lines += ["rk *= r"] * (k > 0) + [f"num += {Rk.name} * rk", f"den += {Qk.name} * rk"]
        lines += ["small = abs(den) < DENOM_FLOOR",
                  "if small.any() if isinstance(small, ndarray) else small:",
                  "    raise _breakdown(theta, r, den)",
                  "return r * num / den"]
        scope = {"cos": math.cos, "sin": math.sin, "ndarray": np.ndarray,
                 "DENOM_FLOOR": DENOM_FLOOR, "_breakdown": _breakdown}
        exec("def f(theta, r):\n    " + "\n    ".join(lines), scope)
        return scope.pop("f")

    # -- validity neighborhood ------------------------------------------------

    def safe_radius(self) -> float:
        """Half the smallest positive radius where the denominator could vanish.

        Infinite when the denominator polynomial has no positive real root on
        the grid of 720 angles.
        """
        if self._safe_radius is not None:
            return self._safe_radius
        best = np.inf
        for theta in _CIRCLE:
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


def _breakdown(theta, r, den) -> PolarChartError:
    return PolarChartError(f"polar chart breakdown at theta={theta!r}, r={r!r}: denominator {den!r}")


def rq_table(rhs: PolarRHS, thetas) -> np.ndarray:
    """Array with columns theta, R_0..R_kmax, Q_0..Q_kmax (CSV-ready)."""
    rows = []
    for theta in thetas:
        R, Q = rhs.components(np.cos(theta), np.sin(theta))
        rows.append([theta, *map(float, R), *map(float, Q)])
    return np.asarray(rows)
