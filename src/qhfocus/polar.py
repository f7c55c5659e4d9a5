"""Generalized-polar right-hand side for weighted-homogeneous fields.

With x = r**p cos(theta), y = r**q sin(theta) the flow becomes

    dr/dtheta = r * (sum_k R_k(theta) r**k) / (sum_k Q_k(theta) r**k),

where R_k / Q_k collect the weighted-homogeneous components of weight
2pq - q + k (x side) and 2pq - p + k (y side).  R_0 and Q_0 hold the leading
part and any terms at its weight.

The components are recorded once per ``PolarRHS`` with the coefficients as
named inputs (``Recording``), so their compiled code, the scalar dr/dtheta,
is shared by every field of one monomial support.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from . import jets
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
        self._safe_radius: float | None = None
        self._recording: Recording | None = None  # recording(), on first use
        self._rhs = None  # __call__'s compiled code, on the first call
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
            self._rhs = self.recording().compiled()
        return self._rhs(theta, r)

    def recording(self) -> Recording:
        """``components`` recorded on the first call, with the coefficients as inputs."""
        if self._recording is None:
            coefs = [a for level in self._levels for side in level for a, _, _ in side]
            program, (R, Q) = jets.record(self._with_coefficients, "c", "s",
                                          *(f"a{i}" for i in range(len(coefs))))
            out = tuple(v.name for v in R + Q)
            body = tuple("    " + line for line in jets.source(program, out))
            # numpy scalars would make every operation of the compiled code a numpy one
            self._recording = Recording(body, out, tuple(map(float, coefs)))
        return self._recording

    def _with_coefficients(self, c, s, *coefs):
        """``components`` with the coefficients of ``_levels`` replaced by ``coefs``, in order."""
        view, it = copy.copy(self), iter(coefs)
        view._levels = tuple(tuple(tuple((next(it), k, j) for _, k, j in side) for side in level)
                             for level in self._levels)
        return view.components(c, s)

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


@dataclass(frozen=True)
class Recording:
    """``components(c, s, *coefs)`` recorded once, with the coefficients as inputs a0, a1, ...

    ``body`` holds the recorded lines as ``jets.source`` writes them, and
    ``out`` the names of R_0..R_k, Q_0..Q_k, where z is a structural zero.
    The text depends only on the monomial support, so its function is
    compiled once per support, and ``compiled`` binds ``coefs`` as closure
    cells.
    """

    body: tuple[str, ...]
    out: tuple[str, ...]
    coefs: tuple[float, ...]

    def compiled(self) -> Callable:
        """``_support_code`` on this field's coefficients: f(theta, r) = dr/dtheta."""
        return _support_code(len(self.coefs), self.body, self.out)(*self.coefs)


@lru_cache(maxsize=128)
def _support_code(n: int, body: tuple[str, ...], out: tuple[str, ...]) -> Callable:
    """make(a0, ..., a<n-1>) -> f(theta, r) = dr/dtheta of a recording, compiled once per text.

    f adds R_k r**k and Q_k r**k into num and den in order of k, with r**k
    built by repeated products, on a float r or elementwise on an array, and
    returns r * num / den bitwise as the component lists give it (the
    recorder may swap a product's factors and fold exact identities and the
    zero 0 * c, which no nonzero sum sees).
    """
    lines = ["def f(theta, r):", "    c, s = cos(theta), sin(theta)", "    z = 0 * c", *body,
             "    num = den = 0.0", "    rk = 1.0"]
    levels = len(out) // 2
    for k, (Rk, Qk) in enumerate(zip(out[:levels], out[levels:])):
        lines += ["    rk *= r"] * (k > 0) + [f"    num += {Rk} * rk", f"    den += {Qk} * rk"]
    lines += ["    small = abs(den) < DENOM_FLOOR",
              "    if small.any() if isinstance(small, ndarray) else small:",
              "        raise _breakdown(theta, r, den)",
              "    return r * num / den"]
    params = ", ".join(f"a{i}" for i in range(n))
    return jets.function(params, [*lines, "return f"], cos=math.cos, sin=math.sin,
                         ndarray=np.ndarray, DENOM_FLOOR=DENOM_FLOOR, _breakdown=_breakdown)


def _breakdown(theta, r, den) -> PolarChartError:
    return PolarChartError(f"polar chart breakdown at theta={theta!r}, r={r!r}: denominator {den!r}")


def rq_table(rhs: PolarRHS, thetas) -> np.ndarray:
    """Array with columns theta, R_0..R_kmax, Q_0..Q_kmax (CSV-ready)."""
    rows = []
    for theta in thetas:
        R, Q = rhs.components(np.cos(theta), np.sin(theta))
        rows.append([theta, *map(float, R), *map(float, Q)])
    return np.asarray(rows)
