"""Chebyshev panels on [0, 2*pi]: nodes, cumulative integrals and interpolation.

The turn is cut into P equal panels, each holding N = 32 first-kind
Chebyshev points.  On a panel a function is the polynomial of degree N - 1
through its values at the points, and integrating that polynomial gives a
fixed N x N cumulative-integral matrix and a row of end weights
(spectral integration, L. Greengard, SIAM J. Numer. Anal. 28, 1991); the
panels chain by their end integrals.  Both are built in closed form, from
the discrete cosine transform to Chebyshev coefficients, (2/N) T^T f with
the first halved, and the antiderivatives of T_m.  The error falls
geometrically in N for a function analytic near the panel (L. N.
Trefethen, Approximation Theory and Approximation Practice, SIAM 2013), and
doubling P shows how far it has fallen.  Barycentric interpolation on the
same points gives the function between the nodes.  ``flow`` runs its focal
values and its return map (radii as lanes) on these panels.  ``refine``
sweeps the first two panel sets, 8 and 16 panels, as one (``PanelSets``):
one evaluation on their nodes together, each set integrated on its own.

The nodes never change, so each sweep's panel counts, the pair of 8 and 16
panels or a count alone, keep one array of nodes, ``PanelSets.nodes``, and
read-only tables of the powers of its cosines and sines, built once by the
same ``**`` that a sweep would take and bounded as a cache.  ``powers``
reads the tables for those arrays, and for no other, which
``polar.PolarRHS.components`` does in place of ``**``.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import QuadratureError

TWO_PI = 2 * np.pi
N = 32  # first-kind Chebyshev points per panel
FIRST_PANELS, MAX_PANELS = 8, 1024
PAIR = (FIRST_PANELS, 2 * FIRST_PANELS)  # the panel sets of ``refine``'s first sweep
ROUNDING = 8 * np.finfo(float).eps  # the rounding floor of ``refine``'s estimate


@lru_cache(maxsize=None)
def _reference() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """On [-1, 1]: the points x_j, ascending; the integral matrix, whose row i < N gives
    int_{-1}^{x_i} and row N int_{-1}^{1} of the interpolant; the barycentric weights."""
    angle = (2 * np.arange(N)[::-1] + 1) * np.pi / (2 * N)
    x, m = np.cos(angle), np.arange(N)
    # Chebyshev coefficients c = coef @ f: c_m = (2/N) sum_j T_m(x_j) f_j, c_0 halved
    coef = (2.0 / N) * np.cos(np.outer(m, angle))
    coef[0] /= 2
    # column m: int_{-1}^{x_i} T_m, from T_{m+1}/(2(m+1)) - T_{m-1}/(2(m-1)) for m >= 2,
    # and in the last row int_{-1}^{1} T_m, 2 / (1 - m**2) for even m and 0 for odd m
    T = lambda k: np.cos(np.outer(angle, k))  # noqa: E731
    k = m[2:]
    integral = np.zeros((N + 1, N))
    integral[:N, 0] = x + 1
    integral[:N, 1] = (T([2])[:, 0] - 1) / 4
    integral[:N, 2:] = T(k + 1) / (2 * (k + 1)) - T(k - 1) / (2 * (k - 1)) - (-1.0) ** k / (k**2 - 1)
    integral[N, ::2] = 2.0 / (1.0 - m[::2] ** 2)
    barycentric = (-1.0) ** m * np.sin(angle)
    # einsum, not @: this module leaves BLAS untouched, whose first call costs resident memory
    return x, np.einsum("im,mj->ij", integral, coef), barycentric


@lru_cache(maxsize=None)
def _integral(count: int) -> np.ndarray:
    """The integral matrix of ``_reference`` on a panel of ``count``."""
    return _reference()[1] * (np.pi / count)


# the arrays of every ``_nodes`` call, by id: (the array, its counts, its place in the call's
# output: 0 the nodes, 1 the cosines, 2 the sines); ``_nodes`` keeps them, so no id is reused
_REGISTRY: dict[int, tuple[np.ndarray, tuple[int, ...], int]] = {}


@lru_cache(maxsize=None)
def _nodes(counts: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nodes of the panel counts ``counts``, count after count, their cosines and sines:
    read-only, and listed in _REGISTRY."""
    theta = np.concatenate([
        (np.arange(count)[:, None] * (2 * np.pi / count)
         + (np.pi / count) * (_reference()[0] + 1)).ravel() for count in counts])
    out = theta, np.cos(theta), np.sin(theta)
    for which, a in enumerate(out):  # every caller shares them
        a.setflags(write=False)
        _REGISTRY[id(a)] = (a, counts, which)
    return out


@lru_cache(maxsize=64)
def _power(counts: tuple[int, ...], which: int, k: int) -> np.ndarray:
    """Array ``which`` of ``_nodes(counts)`` (1 the cosines, 2 the sines) to the power k,
    read-only: the same ``**`` on the same nodes as a sweep would take, so bitwise its
    powers.  Random fields at 1:1 to 3:4 and quintic 2:3 fields read 17 powers of PAIR; one
    power at MAX_PANELS takes 256 KB."""
    out = _nodes(counts)[which] ** k
    out.setflags(write=False)
    return out


def powers(x) -> Callable[[int], np.ndarray] | None:
    """k -> x**k read from the tables where x is one of the arrays of a sweep's
    ``PanelSets.nodes``; None for any other x, copies and slices of them included."""
    entry = _REGISTRY.get(id(x))
    return None if entry is None else partial(_power, *entry[1:])


@dataclass(frozen=True)
class Panels:
    """``count`` equal panels of N first-kind Chebyshev points on [0, 2*pi]."""

    count: int

    def integrate(self, f: np.ndarray) -> tuple[np.ndarray, float | np.ndarray]:
        """int_0^theta f at every node, and int_0^{2*pi} f, from f on the nodes: a float, or
        an array of them where f has leading axes, its lanes, each integrated as alone."""
        lanes = f.shape[:-1]
        local = np.einsum("...pj,ij->...pi", f.reshape(*lanes, -1, N), _integral(self.count))
        values, (total,) = _chain(local, [self.count])
        return values.reshape(f.shape), total if lanes else float(total)

    def interpolate(self, values: np.ndarray, theta) -> np.ndarray:
        """Rows of ``values`` (functions on the nodes) at the angles ``theta`` in [0, 2*pi]:
        shape values.shape[:-1] + theta.shape."""
        theta = np.asarray(theta, dtype=float)
        if not np.all((0.0 <= theta) & (theta <= TWO_PI)):
            raise ValueError(f"theta={theta!r} lies outside the turn [0, 2*pi]")
        x, _, barycentric = _reference()
        flat, half_width = theta.ravel(), np.pi / self.count
        panel = np.minimum((flat / (2 * half_width)).astype(int), self.count - 1)
        local = (flat - panel * 2 * half_width) / half_width - 1.0
        diff = local[:, None] - x
        hit = diff == 0.0
        diff[hit] = 1.0  # a node: its own value, below
        w = barycentric / diff
        w[hit.any(axis=1)] = hit[hit.any(axis=1)]
        rows = values.reshape(-1, self.count, N)[:, panel]  # (rows, angles, N)
        out = np.einsum("ran,an->ra", rows, w) / w.sum(axis=1)
        return out.reshape(values.shape[:-1] + theta.shape)


class PanelSets(tuple):
    """Panel sets swept as one: ``nodes`` holds their nodes set after set, and ``integrate``
    integrates each set on its own, so every value is the one a sweep of that set alone would
    give."""

    @property
    def nodes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nodes of the sets, set after set, each set's in increasing order, their cosines
        and sines: the sweep's one array of each, whose powers ``powers`` reads from the tables."""
        return _nodes(tuple(panels.count for panels in self))

    def split(self, f: np.ndarray) -> list[np.ndarray]:
        """f on ``nodes`` as one view per set, along its last axis."""
        out, hi = [], 0
        for panels in self:
            lo, hi = hi, hi + panels.count * N
            out.append(f[..., lo:hi])
        return out

    def integrate(self, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``Panels.integrate`` of each set on its part of f (without lanes), bitwise: the
        integrals at the nodes, set after set, and the array of each set's int_0^{2*pi} f.

        Every panel runs on the finest set's matrix: a coarser set's matrix is that one times
        a power of two, so scaling its rows afterwards rounds nothing."""
        counts = [panels.count for panels in self]
        finest, lo = max(counts), 0
        local = np.einsum("pj,ij->pi", f.reshape(-1, N), _integral(finest))
        for count in counts:
            ratio = finest // count
            if finest % count or ratio & (ratio - 1):
                raise ValueError(f"panel counts {counts} are not a power of two apart")
            if ratio > 1:
                local[lo:lo + count] *= ratio
            lo += count
        values, totals = _chain(local, counts)
        return values.ravel(), np.array(totals)


def _chain(local: np.ndarray, counts: Sequence[int]) -> tuple[np.ndarray, list]:
    """Chain panels run by run: ``local`` holds each panel's integrals from its start, at its
    nodes and then over it (..., panels, N + 1), and runs of ``counts`` panels follow one
    another.  Returns the integrals from each run's start at the nodes (..., panels, N) and
    the list of the runs' totals.  A run's sums start from -0.0, which adds to its first
    panel bitwise nothing: ``Panels`` and ``PanelSets`` integrate through this one chain."""
    chain, totals, lo = np.empty(local.shape[:-2] + (local.shape[-2] + 1,)), [], 0
    for count in counts:  # chain[..., lo:hi] the integrals up to each panel of the run
        hi = lo + count
        chain[..., lo], chain[..., lo + 1:hi + 1] = -0.0, local[..., lo:hi, N]
        run = np.cumsum(chain[..., lo:hi + 1], axis=-1, out=chain[..., lo:hi + 1])
        totals.append(run[..., -1].copy())  # the next run's -0.0 takes its slot
        lo = hi
    return local[..., :N] + chain[..., :-1, None], totals


def refine(sweep: Callable[[PanelSets], Iterable[tuple[np.ndarray, object]]], rtol: float,
           names: Sequence[str]) -> tuple[Panels, np.ndarray, np.ndarray, object, int]:
    """Double the panels from FIRST_PANELS until ``sweep``'s values settle.

    ``sweep(sets)`` returns, set by set of the ``PanelSets`` ``sets``, the
    values and whatever else the caller keeps of that set.  The first call
    sweeps the two sets of PAIR as one, FIRST_PANELS and twice as many,
    and each later call the next doubling alone.  Each value's error
    estimate is its change from P to 2P panels plus ROUNDING times the
    scale, max(1, max |value|), and the values on 2P panels are accepted
    when every estimate is within rtol times the scale.  The convergence is
    geometric, so the change bounds the error of the coarser values, and
    with it that of the finer ones.  The two sets round at different nodes,
    so the change also carries their rounding noise, a few eps of the
    integrands' size; the floor, 8 eps of the scale, covers two roundings
    that happen to agree.  Returns the accepted panels, values, estimates
    and sweep output, and the nodes evaluated over all sets.  Past
    MAX_PANELS it raises QuadratureError naming (from ``names``) the first
    value that did not settle.
    """
    sets, previous, evals = PanelSets(map(Panels, PAIR)), None, 0
    while True:
        for panels, (values, kept) in zip(sets, sweep(sets)):
            evals += panels.count * N
            if previous is not None:
                scale = max(1.0, float(np.max(np.abs(values))))
                error = np.abs(values - previous) + ROUNDING * scale
                if np.all(error <= rtol * scale):
                    return panels, values, error, kept, evals
                if 2 * panels.count > MAX_PANELS:
                    i = int(np.argmax(error > rtol * scale))
                    raise QuadratureError(
                        f"{names[i]} did not settle to rtol={rtol!r} within {MAX_PANELS} "
                        f"panels: it moved by {error[i]:.3g} at {panels.count}")
            previous = values
        sets = PanelSets([Panels(2 * panels.count)])
