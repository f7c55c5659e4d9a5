"""Generalized-polar right-hand side for weighted-homogeneous fields.

With x = r**p cos(theta), y = r**q sin(theta) the flow becomes

    dr/dtheta = r * (sum_k R_k(theta) r**k) / (sum_k Q_k(theta) r**k),

where R_k / Q_k collect the weighted-homogeneous components of weight
2pq - q + k (x side) and 2pq - p + k (y side).  R_0 and Q_0 hold the leading
part and any terms at its weight.

The package reads the components on a sweep's Chebyshev nodes, one
``spectral.PanelSets.nodes`` array per sweep: the powers of cos(theta) and
sin(theta) from ``spectral``'s tables, and the terms of p, q and theta alone
from a read-only table per array and (p, q), bitwise as computed afresh.  The
scalar dr/dtheta, the tests' reference, is compiled once per ``PolarRHS`` from
its components, recorded with the coefficients as float literals.
"""
from __future__ import annotations

import math
import operator
from functools import lru_cache, partial

import numpy as np

from . import jets, spectral
from .errors import InvalidFieldError, PolarChartError
from .fields import RULE_MONODROMY, Monomial, WeightedField, normalize, require_valid

DENOM_FLOOR = 1e-12
# angles at which Q_0 > 0 and the denominator's radial roots are checked
_CIRCLE = np.linspace(0.0, 2 * np.pi, 720, endpoint=False)


class PolarRHS:
    """Cached polar components of a valid field with Q_0 > 0, charted with lambda = (p, q):
    an unnormalized field as ``normalize(field).field``, which ``self.field`` then holds."""

    def __init__(self, field: WeightedField):
        require_valid(field)
        self.field = field = field if field.normalized else normalize(field).field
        p, q = field.p, field.q
        by_k: dict[int, tuple[list[Monomial], list[Monomial]]] = {}
        for side, (terms, lead) in enumerate(((field.x_terms, field.x_lead_weight),
                                              (field.y_terms, field.y_lead_weight))):
            for t in terms:
                by_k.setdefault(t.weight(p, q) - lead, ([], []))[side].append(t)
        self.k_max = k_max = max(by_k, default=0)
        # terms at the leading weight: summed as the first level, then folded into R_0, Q_0
        self._level0 = 0 in by_k
        # (coefficient, power of cos, power of sin) per side and weight level
        self._levels = tuple(
            tuple(tuple((t.c, t.k, t.j) for t in side) for side in by_k.get(k, ((), ())))
            for k in range(0 if self._level0 else 1, k_max + 1)
        )
        # a bound on the components' degree in cos and sin, so on their frequencies: 2q and
        # 2p in R_0 and Q_0, and k + j + 1 in the R_k, Q_k of a monomial x**k y**j
        self.degree = max(2 * p, 2 * q, *(k + j + 1 for level in self._levels
                                          for side in level for _, k, j in side))
        self._safe_radius: float | None = None
        self._rhs = None  # __call__'s compiled code, on the first call
        if self._level0:
            q0 = self.components(np.cos(_CIRCLE), np.sin(_CIRCLE))[1][0]
            if q0.min() <= 0:
                raise InvalidFieldError(
                    f"field violates {RULE_MONODROMY}: Q_0 = {q0.min():.3g} at theta = "
                    f"{_CIRCLE[q0.argmin()]:.6f}, so the angle does not turn monotonically"
                )

    # -- component evaluation ------------------------------------------------

    def components(self, c, s) -> tuple[list, list]:
        """Lists [R_0..R_kmax], [Q_0..Q_kmax]; generic over the numeric type.  On the cosines
        and sines c, s of a ``spectral.PanelSets.nodes`` the powers come from ``spectral``'s
        tables and ``_weight_only`` from its table, which nothing writes, bitwise as on a copy."""
        p, q = self.field.p, self.field.q
        tables = spectral.powers(c), spectral.powers(s)
        cp, sp = (f or partial(operator.pow, x) for f, x in zip(tables, (c, s)))
        zero, R0, Q0, qs, pc = (_weight_only_table(p, q, cp, sp) if all(tables)
                                else _weight_only(p, q, c, s, cp, sp))
        R, Q = [R0], [Q0]
        for xs, ys in self._levels:
            xm = ym = zero
            for a, k, j in xs:
                xm = xm + a * cp(k) * sp(j)
            for a, k, j in ys:
                ym = ym + a * cp(k) * sp(j)
            R.append(c * xm + s * ym)
            Q.append(qs * xm + pc * ym)
        if self._level0:  # not in place: R_0 and Q_0 may be the table's
            R[0] = R[0] + R.pop(1)
            Q[0] = Q[0] + Q.pop(1)
        return R, Q

    def __call__(self, theta: float, r: float) -> float:
        """dr/dtheta at (theta, r): r * num / den, compiled on the first call from
        ``recording``, num and den summing R_k r**k and Q_k r**k in order of k, bitwise
        as from the component lists (the recorder may swap a product's factors and
        fold exact identities and the zero 0 * c, which no nonzero sum sees)."""
        if self._rhs is None:
            body, out = self.recording()
            levels = len(out) // 2
            lines = ["c, s = cos(theta), sin(theta)", "z = 0 * c", *body, "num = den = 0.0"]
            for k, (Rk, Qk) in enumerate(zip(out[:levels], out[levels:])):
                lines += ["rk *= r" if k else "rk = 1.0", f"num += {Rk} * rk", f"den += {Qk} * rk"]
            lines += ["if abs(den) < DENOM_FLOOR:", "    raise _breakdown(theta, r, den)",
                      "return r * num / den"]
            self._rhs = jets.function("theta, r", lines, cos=math.cos, sin=math.sin,
                                      DENOM_FLOOR=DENOM_FLOOR, _breakdown=_breakdown)
        return self._rhs(theta, r)

    def recording(self) -> tuple[list[str], tuple[str, ...]]:
        """``components`` recorded on c, s with the coefficients as float literals: its
        lines as ``jets.source`` writes them, and the names of R_0..R_k, Q_0..Q_k, where z
        is a structural zero."""
        program, (R, Q) = jets.record(self.components, "c", "s")
        out = tuple(v.name for v in R + Q)
        return jets.source(program, out), out

    # -- validity neighborhood ------------------------------------------------

    def safe_radius(self) -> float:
        """Half the smallest positive radius where the denominator could vanish.

        Infinite when the denominator polynomial has no positive real root on
        the grid of 720 angles.  One ``components`` pass on the angles, as
        arrays of Python floats so that each value rounds as at one angle,
        gives the polynomials.  Each is trimmed of negligible high-order
        coefficients, and those of one degree share one ``np.linalg.eigvals``
        call on the companion matrices ``np.roots`` would build.  A positive
        real root counts only where the polynomial genuinely comes near zero;
        the candidates are checked from the smallest up, so the first that
        counts is the minimum.
        """
        if self._safe_radius is not None:
            return self._safe_radius
        c, s = (np.array(f(_CIRCLE), dtype=object) for f in (np.cos, np.sin))
        coeffs = np.array(self.components(c, s)[1][::-1], dtype=float).T  # highest power first
        mags = np.abs(coeffs)
        # negligible high-order coefficients poison the companion matrix
        big = mags > 1e-14 * mags.max(axis=1, keepdims=True)
        lead = np.where(big.any(axis=1), big.argmax(axis=1), coeffs.shape[1])
        # np.roots drops trailing zeros, whose roots are 0
        last = coeffs.shape[1] - 1 - (coeffs[:, ::-1] != 0).argmax(axis=1)
        candidates = []
        for first, end in set(zip(lead.tolist(), last.tolist())):
            if end <= first:
                continue
            rows = np.nonzero((lead == first) & (last == end))[0]
            poly = coeffs[rows, first : end + 1]
            companion = np.zeros((rows.size, end - first, end - first))
            companion[:, 0, :] = -poly[:, 1:] / poly[:, :1]
            sub = np.arange(end - first - 1)
            companion[:, sub + 1, sub] = 1.0
            roots = np.linalg.eigvals(companion)
            real = (np.abs(roots.imag) < 1e-9 * (1 + np.abs(roots.real))) & (roots.real > 0)
            candidates += zip(roots.real[real], rows[real.nonzero()[0]], [first] * real.sum())
        best = np.inf
        for r, row, first in sorted(candidates, key=lambda x: x[0]):
            poly = coeffs[row, first:]
            mags = np.abs(poly) * r ** np.arange(poly.size - 1, -1, -1)
            if abs(np.polyval(poly, r)) <= 1e-8 * max(mags.max(), 1e-300):
                best = r
                break
        self._safe_radius = float(best / 2.0)
        return self._safe_radius

    def check_radius(self, r: float):
        if abs(r) > self.safe_radius():
            raise PolarChartError(
                f"radius {r!r} outside the valid polar neighborhood "
                f"(limit {self.safe_radius()!r})"
            )


def _weight_only(p: int, q: int, c, s, cp, sp) -> tuple:
    """0 * c, the leading R_0 and Q_0, -q s and p c: ``components``' terms of p, q and c, s."""
    return (0 * c, c * s * (q * cp(2 * q - 2) - p * sp(2 * p - 2)),
            p * q * (cp(2 * q) + sp(2 * p)), -q * s, p * c)


@lru_cache(maxsize=16)
def _weight_only_table(p: int, q: int, cp, sp) -> tuple[np.ndarray, ...]:
    """``_weight_only``, read-only, on the nodes of the power tables cp, sp (cp(1) is c bitwise)."""
    out = _weight_only(p, q, cp(1), sp(1), cp, sp)
    for a in out:
        a.setflags(write=False)
    return out


def _breakdown(theta, r, den) -> PolarChartError:
    return PolarChartError(f"polar chart breakdown at theta={theta!r}, r={r!r}: denominator {den!r}")


def rq_table(rhs: PolarRHS, thetas) -> np.ndarray:
    """Array with columns theta, R_0..R_kmax, Q_0..Q_kmax (CSV-ready)."""
    rows = []
    for theta in thetas:
        R, Q = rhs.components(np.cos(theta), np.sin(theta))
        rows.append([theta, *map(float, R), *map(float, Q)])
    return np.asarray(rows)
