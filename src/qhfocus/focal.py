"""Focal values, weak-focus order, parity checks, and parameter Jacobians."""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from . import flow
from .errors import QhfocusError, check_tol
from .fields import Monomial, WeightedField, normalize, require_valid
from .polar import PolarRHS

DEFAULT_ZERO_TOL = 1e-9

EVEN_SUM = "even-sum"
ODD_SUM = "odd-sum"

STRONG_FOCUS = "strong-focus"
WEAK_FOCUS = "weak-focus"
CENTER_CANDIDATE = "center-candidate"
INDETERMINATE = "indeterminate"


@dataclass(frozen=True)
class FocalReport:
    """Classification of the origin from the displacement coefficients."""

    values: tuple[float, ...]  # nu_k(2*pi) for k = 2..K
    zero_tol: float
    parity_class: str
    first_nonzero_index: int | None
    focus_order: int | None
    verdict: str
    integ_tol: float  # local error tolerance the integrator solved to
    weight_gcd: int = 1
    order: int = 0
    # integrator work: RHS evaluations and accepted steps (Taylor coefficients
    # of the jet RHS and Taylor steps under extended precision)
    rhs_evals: int | None = None
    steps: int | None = None
    nu1: float = 1.0  # nu_1(2*pi): 1 but for terms at the leading weight

    def nu(self, k: int) -> float:
        if k == 1:
            return self.nu1
        return self.values[k - 2]

    @property
    def focal_indices(self) -> tuple[int, ...]:
        """Indices carrying focal values within order, by the parity theorems:
        odd when p + q is even, even when it is odd."""
        return tuple(range(_FIRST_FOCAL_INDEX[self.parity_class], self.order + 1, 2))


_FIRST_FOCAL_INDEX = {EVEN_SUM: 3, ODD_SUM: 2}


def _parity_class(p: int, q: int) -> str:
    return EVEN_SUM if (p + q) % 2 == 0 else ODD_SUM


def _prepare(field: WeightedField) -> tuple[PolarRHS, int]:
    """Validate, normalize, and build the polar RHS; returns gcd of weights."""
    require_valid(field)
    d = math.gcd(field.p, field.q)
    if not field.normalized:
        field = normalize(field).field
    return PolarRHS(field), d


def classify(
    nu: Sequence[float],
    p: int,
    q: int,
    integ_tol: float,
    zero_tol: float = DEFAULT_ZERO_TOL,
    weight_gcd: int = 1,
) -> FocalReport:
    """Build a FocalReport from nu_1..nu_K of the return map: nu_1 off 1 makes a
    strong focus, else the first nonzero nu_k, k >= 2, decides.  The zero
    tolerance scales with the largest |nu_k|, k >= 2."""
    nu1, values = float(nu[0]), tuple(float(v) for v in nu[1:])
    K = len(values) + 1
    scale = max(1.0, max((abs(v) for v in values), default=0.0))
    tol = zero_tol * scale
    parity = _parity_class(p, q)
    first = next(
        (k for k, v in zip(range(1, K + 1), (nu1 - 1.0, *values)) if abs(v) > tol), None
    )
    report = FocalReport(
        values=values,
        zero_tol=tol,
        parity_class=parity,
        first_nonzero_index=first,
        focus_order=None,
        verdict=CENTER_CANDIDATE if first is None else INDETERMINATE,
        integ_tol=integ_tol,
        weight_gcd=weight_gcd,
        order=K,
        nu1=nu1,
    )
    if first == 1:
        return replace(report, verdict=STRONG_FOCUS)
    if first in report.focal_indices:
        # a first focal value at k = 2m or 2m + 1 makes a weak focus of order m
        return replace(report, verdict=WEAK_FOCUS, focus_order=first // 2)
    # no nonzero value, or one where the parity theorems forbid it: no order
    return report


def focal_values(
    field: WeightedField,
    K: int | None = None,
    tol: float = DEFAULT_ZERO_TOL,
    integ_tol: float = flow.DEFAULT_TOL,
    precision: str = "double",
    dps: int = 30,
) -> FocalReport:
    """nu_1(2*pi)..nu_K(2*pi) by jet transport over one full turn.

    The extended-precision solve runs at its own tolerance 10**-dps in place
    of ``integ_tol``; the report records the tolerance used either way.
    """
    check_tol(integ_tol)
    rhs, d = _prepare(field)
    K = K if K is not None else flow.default_order(field.p, field.q)
    if K < 3:
        raise ValueError("focal analysis needs jet order K >= 3")
    if precision == "extended":
        final, stats = flow.integrate_jet_extended(rhs, order=K, dps=dps)
    elif precision == "double":
        traj = flow.integrate_jet(rhs, tol=integ_tol, order=K)
        final, stats = traj.final, traj.stats
    else:
        raise ValueError(f"unknown precision mode {precision!r}")
    report = classify(final, field.p, field.q, stats.tol, zero_tol=tol, weight_gcd=d)
    return replace(report, rhs_evals=stats.n_rhs_evals, steps=stats.n_steps)


# -- parameter Jacobians -------------------------------------------------------


@dataclass(frozen=True)
class JacobianResult:
    matrix: np.ndarray  # rows: focal indices, columns: parameters
    indices: tuple[int, ...]
    singular_values: np.ndarray
    rank: int
    ill_conditioned: bool
    rhs_evals: int  # integrator work summed over the focal_values calls
    steps: int
    integ_tol: float  # the tolerance the solves ran at, as in FocalReport
    wall_s: float  # wall time of the whole Jacobian


def focal_jacobian(
    family: Callable[[np.ndarray], WeightedField],
    eps0: Sequence[float],
    indices: Sequence[int],
    K: int | None = None,
    integ_tol: float = flow.DEFAULT_TOL,
) -> JacobianResult:
    """Central-difference Jacobian of nu_k(2*pi, eps) at eps0.

    The step for parameter i is 1e-5 * max(1, |eps0[i]|).
    """
    t0 = perf_counter()
    eps0 = np.asarray(eps0, dtype=float)
    indices = tuple(indices)
    Kmin = max(indices)
    K = max(K or 0, Kmin, 3)

    reports = []

    def values_at(eps: np.ndarray) -> np.ndarray:
        reports.append(focal_values(family(eps), K=K, integ_tol=integ_tol))
        return np.array([reports[-1].nu(k) for k in indices])

    cols = []
    for i in range(eps0.size):
        h = 1e-5 * max(1.0, abs(eps0[i]))
        e = np.zeros_like(eps0)
        e[i] = h
        cols.append((values_at(eps0 + e) - values_at(eps0 - e)) / (2 * h))
    J = np.column_stack(cols)
    sv = np.linalg.svd(J, compute_uv=False)
    # finite differencing limits resolvable singular values well above eps
    cut = 1e-7 * (sv[0] if sv.size else 0.0)
    rank = int(np.sum(sv > cut))
    ill = False
    if 0 < rank < sv.size and sv[rank - 1] / max(sv[rank], 1e-300) < 1e3:
        ill = True
    work = [sum(r.rhs_evals for r in reports), sum(r.steps for r in reports)]
    return JacobianResult(J, indices, sv, rank, ill, *work, max(integ_tol, flow.RTOL_FLOOR),
                          perf_counter() - t0)


# -- structural center certificates ---------------------------------------------


def structural_center(field: WeightedField) -> dict[str, bool]:
    """Structural center certificates, each read off the coefficients.

    hamiltonian: div F vanishes.  x-axis: (x, y, t) -> (x, -y, -t) invariance,
    which needs X odd and Y even in y.  y-axis: (x, y, t) -> (-x, y, -t)
    invariance, which needs X even and Y odd in x.  The leading part satisfies
    both symmetries.  A coefficient counts as zero below 1e-13 of the largest one.
    """
    scale = max([abs(t.c) for t in field.x_terms + field.y_terms] or [1.0])

    def zero(coeffs) -> bool:
        return all(abs(c) <= 1e-13 * scale for c in coeffs)

    xs, ys = field.x_terms, field.y_terms
    out = {
        "hamiltonian": zero(field.divergence_terms().values()),
        "x-axis": zero([t.c for t in xs if t.j % 2 == 0] + [t.c for t in ys if t.j % 2 == 1]),
        "y-axis": zero([t.c for t in xs if t.k % 2 == 1] + [t.c for t in ys if t.k % 2 == 0]),
    }
    out["certified"] = any(out.values())
    return out


# -- random fields and parity surveys --------------------------------------------


def random_field(p: int, q: int, rng: np.random.Generator) -> WeightedField:
    """A random valid field: leading part plus three admissible monomials per side.

    Each monomial has weight at most max(p, q) + 2 above its leading term and a
    coefficient uniform in [-1, 1].
    """
    max_extra = max(p, q) + 2
    cap = (2 * p - 1) + (2 * q - 1) + 4

    def admissible(lead_weight: int, forbidden: tuple[int, int]):
        pool = []
        for k in range(cap + 1):
            for j in range(cap + 1 - k):
                w = k * p + j * q
                if lead_weight < w <= lead_weight + max_extra and (k, j) != forbidden:
                    pool.append((k, j))
        return pool

    def pick(pool) -> tuple[Monomial, ...]:
        chosen = rng.choice(len(pool), size=min(3, len(pool)), replace=False)
        return tuple(Monomial(*pool[i], rng.uniform(-1, 1)) for i in chosen)

    x_terms = pick(admissible((2 * p - 1) * q, (0, 2 * p - 1)))
    y_terms = pick(admissible((2 * q - 1) * p, (2 * q - 1, 0)))
    return WeightedField(p=p, q=q, x_terms=x_terms, y_terms=y_terms)


@dataclass
class SurveyResult:
    p: int
    q: int
    weight_gcd: int
    n_samples: int
    n_skipped: int
    n_unresolved: int
    first_index_counts: dict[int, int] = dc_field(default_factory=dict)
    parity_ok: bool = True
    rhs_evals: int = 0  # integrator work summed over the focal_values calls that returned
    steps: int = 0
    integ_tol: float = flow.DEFAULT_TOL  # the tolerance the solves ran at, as in FocalReport
    wall_s: float = 0.0  # wall time of the whole survey

    @property
    def expected_parity(self) -> str:
        return "odd" if _FIRST_FOCAL_INDEX[_parity_class(self.p, self.q)] % 2 else "even"


def parity_survey(
    p: int,
    q: int,
    n_samples: int = 20,
    seed: int = 42,
    integ_tol: float = flow.DEFAULT_TOL,
) -> SurveyResult:
    """First-nonzero-index distribution over random fields at weights p/d:q/d.

    d = gcd(p, q).  Sampling happens at the reduced weights, where the parity
    theorems speak.  For d > 1 that is a different class of systems than p:q:
    the leading part -lambda1 y**(2p-1), lambda2 x**(2q-1) follows the weights.
    """
    if p < 1 or q < 1:
        raise ValueError("weights p, q must be positive integers")
    if n_samples < 1:
        raise ValueError(f"a survey needs at least one sample, got n_samples={n_samples}")
    t0 = perf_counter()
    d = math.gcd(p, q)
    p, q = p // d, q // d
    rng = np.random.default_rng(seed)
    res = SurveyResult(p, q, d, n_samples, 0, 0, integ_tol=max(integ_tol, flow.RTOL_FLOOR))
    for _ in range(n_samples):
        f = random_field(p, q, rng)
        try:
            rep = focal_values(f, integ_tol=integ_tol)
        except QhfocusError:
            res.n_skipped += 1
            continue
        res.rhs_evals += rep.rhs_evals
        res.steps += rep.steps
        first = rep.first_nonzero_index
        if first is None or abs(rep.nu(first)) <= 10 * rep.zero_tol:
            res.n_unresolved += 1
            continue
        res.first_index_counts[first] = res.first_index_counts.get(first, 0) + 1
        if first not in rep.focal_indices:
            res.parity_ok = False
    res.wall_s = perf_counter() - t0
    return res
