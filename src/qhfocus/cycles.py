"""Limit-cycle detection from displacement sign changes.

The displacement is either the polar return map minus identity (weighted
fields, damped ones included) or the section return along the positive
x-axis.  The Cartesian backend takes any callable (x, y) -> velocities, and
for a weighted field it is the independent reference the polar scan is
checked against.  Cycles are bracketed on a geometric grid, refined by
Brent's method (``dop853.brentq``, scipy's compiled ``brentq``), and
classified by the direction of the sign change.  No scan or closure check
imports ``scipy.integrate`` or ``scipy.optimize``.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field
from time import perf_counter
from typing import Callable, Sequence

import numpy as np

from . import flow
from .dop853 import brentq
from .errors import AlternationError, QhfocusError
from .fields import WeightedField, normalize
from .polar import PolarRHS

POLAR = "polar"
CARTESIAN = "cartesian"


def _displacement_fn(backend: str, system, tol: float) -> Callable[[float], float]:
    if backend == POLAR:
        rhs = PolarRHS(system)
        return lambda h: flow.return_map(rhs, h, tol) - h
    if backend == CARTESIAN:
        return lambda x0: flow.section_return(system, x0, tol).x - x0
    raise ValueError(f"unknown backend {backend!r}")


@dataclass(frozen=True)
class Cycle:
    h_star: float
    bracket: tuple[float, float]
    residual: float
    stability: str  # "stable" | "unstable"
    evals: int  # displacement evaluations of its refinement, a polar root's bracket ends included


@dataclass
class CycleSet:
    backend: str
    h_lo: float
    h_hi: float
    grid_n: int
    cycles: list[Cycle] = dc_field(default_factory=list)
    scan: list[tuple[float, float]] = dc_field(default_factory=list)
    indeterminate: list[float] = dc_field(default_factory=list)  # grid radii below the noise floor
    grid_s: float = 0.0  # wall time of the grid scan
    refine_s: float = 0.0  # wall time of the root refinement

    def __len__(self) -> int:
        return len(self.cycles)


def find_cycles(
    backend: str,
    system,
    h_lo: float,
    h_hi: float,
    grid_n: int = 48,
    tol: float = flow.DEFAULT_TOL,
    noise_floor: float | None = None,
) -> CycleSet:
    """Scan Delta on a geometric grid, bracket sign changes, refine by Brent's method.

    The polar grid is one ``flow.return_map`` call on all its radii.  Samples
    below the noise floor carry no trustworthy sign, so they are treated as
    indeterminate and listed in ``CycleSet.indeterminate``; a bracket is
    formed between the nearest determinate samples of opposite sign on
    either side of the crossing.
    Each bracket goes to one ``dop853.brentq`` call, scipy's ``brentq``,
    which stops once it has narrowed the bracket to tol * max(1, b); one
    that fails to converge raises.  It reads one map: a polar root
    re-evaluates its bracket ends one radius at a time, as a lane's panel
    count depends on the radii swept with it, and so its last digits.
    """
    if not 0 < h_lo < h_hi < math.inf:
        raise ValueError(f"need 0 < h_lo < h_hi, both finite, got {h_lo!r}, {h_hi!r}")
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    if noise_floor is not None and not 0 <= noise_floor < math.inf:
        raise ValueError(f"noise_floor must be finite and nonnegative, got {noise_floor!r}")
    displacement = _displacement_fn(backend, system, tol)
    # one radius at a time, each once: brentq often ends on a point it has evaluated, and
    # a polar bracket's ends, from the grid's lanes, are evaluated again on purpose
    seen: dict[float, float] = {}

    def delta(h: float) -> float:
        if h not in seen:
            seen[h] = float(displacement(h))
        return seen[h]

    floor = noise_floor if noise_floor is not None else 100 * tol
    t0 = perf_counter()
    grid = np.geomspace(h_lo, h_hi, grid_n)
    values = displacement(grid).tolist() if backend == POLAR else map(delta, grid.tolist())
    out = CycleSet(backend, h_lo, h_hi, grid_n, scan=list(zip(grid.tolist(), values)))
    t1 = perf_counter()
    out.grid_s = t1 - t0
    resolved = [(h, v) for h, v in out.scan if abs(v) >= floor]
    out.indeterminate = [h for h, v in out.scan if not abs(v) >= floor]
    for (a, fa), (b, fb) in zip(resolved[:-1], resolved[1:]):
        if fa * fb >= 0:
            continue
        before = len(seen)
        root = brentq(delta, a, b, xtol=tol * max(1.0, b))
        out.cycles.append(
            Cycle(
                h_star=float(root),
                bracket=(a, b),
                residual=abs(delta(root)),
                stability="stable" if fa > 0 else "unstable",
                evals=len(seen) - before,
            )
        )
    out.refine_s = perf_counter() - t1
    return out


def closure_error(
    cartesian_field,
    h_star: float,
    p: int | None = None,
    tol: float = flow.DEFAULT_TOL,
) -> float:
    """Re-integrate a reported cycle as a Cartesian orbit; section-point gap.

    A polar root h, a normalized radius, is the section point (scale_x * h**p, 0)
    of a weighted field, p its own weight and scale_x of ``normalize``; a ``p``
    given must be that weight.  Of a plain callable it is (h**p, 0), p = 1 by default.
    """
    if isinstance(cartesian_field, WeightedField):
        if p not in (None, cartesian_field.p):
            raise ValueError(f"p={p!r} is not the field's weight p={cartesian_field.p!r}")
        x0 = h_star**cartesian_field.p * normalize(cartesian_field).scale_x
    else:
        x0 = h_star ** (1 if p is None else p)
    crossing = flow.section_return(cartesian_field, x0, tol)
    return abs(crossing.x - x0)


def alternation_search(
    chain_fn: Callable[[np.ndarray], Sequence[float]],
    target_signs: Sequence[int],
    box: Sequence[tuple[float, float]],
    gap: Sequence[float],
    scan_n: int = 24,
) -> np.ndarray:
    """Find a parameter point realizing a sign chain with growing magnitudes.

    ``chain_fn`` maps an n-parameter vector to the chain of focal-like values
    (last entries controlled by outer structure).  Parameter i is assumed to
    steer chain entry i while leaving later entries essentially unchanged, so
    parameters start at zero and are tuned one at a time from the last down to
    the first, each scanned geometrically inside its box until its chain entry
    has the target sign and magnitude between 1e-10 and ``1/gap[i]`` of the
    next entry.  ``gap`` holds one gap per tunable entry, none below 10, which
    keeps the displacement roots separated: the roots sit near the successive
    magnitude ratios, so uniform gaps would let adjacent roots collide.
    """
    target_signs = list(target_signs)
    gaps = [float(g) for g in gap]
    if len(gaps) != len(target_signs) - 1:
        raise ValueError("need one gap per tunable chain entry")
    if len(box) != len(gaps):
        raise ValueError("need one box per tunable chain entry")
    if any(g < 10 for g in gaps):
        raise ValueError("magnitude gaps below 10 do not separate cycle roots")
    if scan_n < 1:
        raise ValueError(f"scan_n must be at least 1, got {scan_n!r}")
    eps = np.zeros(len(box))
    chain = list(chain_fn(eps))
    if len(chain) < len(target_signs):
        raise ValueError("chain shorter than the requested sign pattern")
    # the tail entry must already carry its sign at the base point
    tail_sign = np.sign(chain[len(target_signs) - 1])
    if tail_sign != target_signs[-1]:
        raise AlternationError(f"chain tail has sign {tail_sign}, wanted {target_signs[-1]}")
    for i in range(len(target_signs) - 2, -1, -1):
        lo, hi = box[i]
        if not 0 < lo < hi:
            raise ValueError("box bounds must satisfy 0 < lo < hi")
        next_mag = abs(chain[i + 1])
        signs = (target_signs[i], -target_signs[i])
        for mag, sign in itertools.product(np.geomspace(hi, lo, scan_n), signs):
            trial = eps.copy()
            trial[i] = sign * mag
            try:
                cand = list(chain_fn(trial))
            except QhfocusError:
                continue
            if np.sign(cand[i]) == target_signs[i] and 1e-10 <= abs(cand[i]) <= next_mag / gaps[i]:
                eps, chain = trial, cand
                break
        else:
            raise AlternationError(f"no alternation found for chain entry {i} inside the box")
    return eps
