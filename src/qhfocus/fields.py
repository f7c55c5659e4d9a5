"""Planar polynomial vector fields with a p:q weighted-homogeneous leading part.

A field represents

    dx/dt = -lambda1 * y**(2p-1) + sum a_kj x**k y**j
    dy/dt =  lambda2 * x**(2q-1) + sum b_kj x**k y**j

where every perturbing monomial has weighted degree k*p + j*q at or above
the weight of the corresponding leading term, with Q_0 > 0 (``polar``).
Terms at the leading weight enter only R_0 and Q_0 of the polar chart.  At
1:1 linear damping is one, and moves nu_1(2*pi) off 1.  At 2:3 they are
x**3 y in dx/dt and x**2 y**2 in dy/dt: their R_0 is odd and their Q_0 even
under theta -> -theta, so the integral of R_0/Q_0 over a turn vanishes and
nu_1(2*pi) stays 1.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Iterable

from .errors import InvalidFieldError


def _integers(obj, **values) -> None:
    """Set the named fields of the frozen ``obj`` to their values, integers, as int."""
    for name, value in values.items():
        try:
            object.__setattr__(obj, name, operator.index(value))
        except TypeError:
            raise ValueError(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class Monomial:
    """A single term c * x**k * y**j."""

    k: int
    j: int
    c: float

    def __post_init__(self):
        if not type(self.k) is type(self.j) is int:  # a numpy integer as int, a float refused
            _integers(self, k=self.k, j=self.j)
        if self.k < 0 or self.j < 0:
            raise ValueError(f"negative exponent in monomial ({self.k},{self.j})")
        if not math.isfinite(self.c):
            raise ValueError("monomial coefficient must be finite")
        if type(self.c) is not float:
            object.__setattr__(self, "c", float(self.c))

    def weight(self, p: int, q: int) -> int:
        return self.k * p + self.j * q


def _dedupe(terms: Iterable[Monomial]) -> tuple[Monomial, ...]:
    acc: dict[tuple[int, int], float] = {}
    for t in terms:
        acc[(t.k, t.j)] = acc.get((t.k, t.j), 0.0) + t.c
    return tuple(
        Monomial(k, j, c) for (k, j), c in sorted(acc.items()) if c != 0.0
    )


@dataclass(frozen=True)
class WeightedField:
    """A p:q weighted-homogeneous planar system, stored sparsely by (k, j)."""

    p: int
    q: int
    lambda1: float | None = None  # None: default to p / q below
    lambda2: float | None = None
    x_terms: tuple[Monomial, ...] = ()
    y_terms: tuple[Monomial, ...] = ()

    def __post_init__(self):
        _integers(self, p=self.p, q=self.q)
        if self.p < 1 or self.q < 1:
            raise ValueError("weights p, q must be positive integers")
        lam = (float(self.p) if self.lambda1 is None else self.lambda1,
               float(self.q) if self.lambda2 is None else self.lambda2)
        if not all(map(math.isfinite, lam)):
            raise ValueError(f"lambda1, lambda2 must be finite, got ({lam[0]}, {lam[1]})")
        object.__setattr__(self, "lambda1", float(lam[0]))
        object.__setattr__(self, "lambda2", float(lam[1]))
        object.__setattr__(self, "x_terms", _dedupe(self.x_terms))
        object.__setattr__(self, "y_terms", _dedupe(self.y_terms))

    # -- leading-part bookkeeping -------------------------------------------

    @property
    def x_lead_weight(self) -> int:
        return (2 * self.p - 1) * self.q

    @property
    def y_lead_weight(self) -> int:
        return (2 * self.q - 1) * self.p

    @property
    def normalized(self) -> bool:
        return (
            abs(self.lambda1 - self.p) <= 1e-14 * self.p
            and abs(self.lambda2 - self.q) <= 1e-14 * self.q
        )

    def __call__(self, x: float, y: float) -> tuple[float, float]:
        """Right-hand side (dx/dt, dy/dt) at a Cartesian point."""
        u = -self.lambda1 * y ** (2 * self.p - 1)
        v = self.lambda2 * x ** (2 * self.q - 1)
        for t in self.x_terms:
            u += t.c * x**t.k * y**t.j
        for t in self.y_terms:
            v += t.c * x**t.k * y**t.j
        return u, v

    def divergence_terms(self) -> dict[tuple[int, int], float]:
        """Sparse coefficients of div F = dX/dx + dY/dy (leading part cancels)."""
        acc: dict[tuple[int, int], float] = {}
        for t in self.x_terms:
            if t.k >= 1:
                key = (t.k - 1, t.j)
                acc[key] = acc.get(key, 0.0) + t.k * t.c
        for t in self.y_terms:
            if t.j >= 1:
                key = (t.k, t.j - 1)
                acc[key] = acc.get(key, 0.0) + t.j * t.c
        return {key: c for key, c in acc.items() if c != 0.0}


RULE_POSITIVE_LAMBDA = "positive-lambda"
RULE_LEADING_DEGENERACY = "leading-degeneracy"
RULE_WEIGHT_BOUND = "weight-bound"
RULE_MONODROMY = "monodromy"


def require_valid(f: WeightedField) -> WeightedField:
    """Check the weighted-homogeneity contract; raise naming every violated rule."""
    violations = [RULE_POSITIVE_LAMBDA] if f.lambda1 <= 0 or f.lambda2 <= 0 else []
    for terms, forbidden, bound in (
        (f.x_terms, (0, 2 * f.p - 1), f.x_lead_weight),
        (f.y_terms, (2 * f.q - 1, 0), f.y_lead_weight),
    ):
        for t in terms:
            if (t.k, t.j) == forbidden:
                violations.append(f"{RULE_LEADING_DEGENERACY} at ({t.k},{t.j})")
            elif t.weight(f.p, f.q) < bound:
                violations.append(f"{RULE_WEIGHT_BOUND} at ({t.k},{t.j})")
    if violations:
        raise InvalidFieldError(
            f"field violates weighted-homogeneity: {', '.join(violations)}"
        )
    return f


@dataclass(frozen=True)
class NormalizationResult:
    field: WeightedField
    scale_x: float
    scale_y: float
    time_scale: float


def normalize(f: WeightedField) -> NormalizationResult:
    """Rescale so the leading coefficients become exactly (p, q).

    Substitutes x = scale_x * u, y = scale_y * v, dt = time_scale * dtau with
    scale_x = (q/lambda2)**(1/(2q)), scale_y = (p/lambda1)**(1/(2p)).
    """
    if f.lambda1 <= 0 or f.lambda2 <= 0:
        raise InvalidFieldError(f"field violates {RULE_POSITIVE_LAMBDA}: leading coefficients "
                                f"must be positive, got ({f.lambda1}, {f.lambda2})")
    sx = (f.q / f.lambda2) ** (1.0 / (2 * f.q))
    sy = (f.p / f.lambda1) ** (1.0 / (2 * f.p))
    ts = sx * sy

    def scaled(terms, own: float) -> tuple[Monomial, ...]:
        # du/dtau = ts/sx * X(sx u, sy v), dv/dtau = ts/sy * Y(sx u, sy v)
        return tuple(Monomial(t.k, t.j, t.c * sx**t.k * sy**t.j * ts / own) for t in terms)

    out = replace(f, lambda1=float(f.p), lambda2=float(f.q),
                  x_terms=scaled(f.x_terms, sx), y_terms=scaled(f.y_terms, sy))
    return NormalizationResult(out, sx, sy, ts)


# -- system-definition text format ------------------------------------------


def parse_system(text: str) -> WeightedField:
    """Parse the line-oriented system format.

    Directives: ``p <int>``, ``q <int>``, ``lambda1 <real>``, ``lambda2 <real>``,
    ``x <k> <j> <coeff>``, ``y <k> <j> <coeff>``.
    ``#`` starts a comment.  lambda1/lambda2 default to p/q.  A line with
    extra tokens, and a second p, q, lambda1 or lambda2 line, is rejected.
    """
    scalars: dict[str, float] = {}
    x_terms: list[Monomial] = []
    y_terms: list[Monomial] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, *args = line.split()
        key = key.lower()
        try:
            if key not in ("p", "q", "lambda1", "lambda2", "x", "y"):
                raise ValueError(f"unknown directive {key!r}")
            arity = 3 if key in ("x", "y") else 1
            if len(args) != arity:
                raise ValueError(f"{key} takes {arity} value(s), got {len(args)}")
            if key in ("x", "y"):
                k, j, c = args
                (x_terms if key == "x" else y_terms).append(Monomial(int(k), int(j), float(c)))
            elif key in scalars:
                raise ValueError(f"{key} is already set")
            else:
                scalars[key] = int(args[0]) if key in ("p", "q") else float(args[0])
        except ValueError as exc:
            raise InvalidFieldError(f"line {lineno}: {raw.strip()!r}: {exc}") from exc
    p, q = scalars.get("p"), scalars.get("q")
    if p is None or q is None:
        raise InvalidFieldError("system file must define both p and q")
    return WeightedField(
        p=p,
        q=q,
        lambda1=scalars.get("lambda1"),
        lambda2=scalars.get("lambda2"),
        x_terms=tuple(x_terms),
        y_terms=tuple(y_terms),
    )


def load_system(path) -> WeightedField:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())


def format_system(f: WeightedField) -> str:
    lines = [f"p {f.p}", f"q {f.q}", f"lambda1 {f.lambda1!r}", f"lambda2 {f.lambda2!r}"]
    for t in f.x_terms:
        lines.append(f"x {t.k} {t.j} {t.c!r}")
    for t in f.y_terms:
        lines.append(f"y {t.k} {t.j} {t.c!r}")
    return "\n".join(lines) + "\n"
