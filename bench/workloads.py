"""The benchmark workloads: inputs drawn from a seed, one timed pass, gates.

Each workload prepares its inputs once, at set-up, from ``--seed`` alone; the
library sees only the generated fields and scan ranges.  ``run_pass`` is the
timed unit of work.  ``gates`` turns a pass into gated operations, each passed
or failed, and ``self_test`` feeds every gate a deliberately wrong copy of a
real result so a gate that never fires is caught.
"""
from __future__ import annotations

import dataclasses
import hashlib

import numpy as np

from qhfocus import casestudy, cycles, flow, focal
from qhfocus.errors import QhfocusError
from qhfocus.polar import PolarRHS
from speed import clock


@dataclasses.dataclass
class PassResult:
    outcomes: list  # workload-specific raw results, in input order
    field_s: list[float]  # latency of each field (or chain evaluation)
    stage_s: dict[str, float] = dataclasses.field(default_factory=dict)
    counts: dict[str, int] = dataclasses.field(default_factory=dict)


def _digest(items) -> str:
    return hashlib.sha256(repr(items).encode()).hexdigest()[:16]


def _field_key(f) -> tuple:
    return (f.p, f.q, f.x_terms, f.y_terms)


def _support(f) -> tuple:
    return (f.p, f.q, tuple((t.k, t.j) for t in f.x_terms), tuple((t.k, t.j) for t in f.y_terms))


def _resolved(report) -> bool:
    """A nonzero focal value clearly above the zero tolerance (as in parity_survey)."""
    first = report.first_nonzero_index
    return first is not None and abs(report.nu(first)) > 10 * report.zero_tol


def _attempt(fn, *args, **kwargs):
    """Call into the library; an expected-domain error becomes the result."""
    try:
        return fn(*args, **kwargs)
    except QhfocusError as exc:
        return exc


# Supports of the quintic 2:3 field as 4-bit masks over (a22, a50, b13, b41),
# a22 the high bit.  nu_2 is proportional to 5*a50 + b41, so a50 or b41 is kept.
QUINTIC_MASKS = [m for m in range(1, 16) if m & 0b0100 or m & 0b0001]
V2_MIN = 0.1  # same floor as the reference-ratio acceptance check


def _quintic(rng: np.random.Generator, mask: int = 0b1111) -> tuple[float, ...]:
    while True:
        coeffs = tuple(
            float(rng.uniform(-1.0, 1.0)) if mask >> (3 - i) & 1 else 0.0
            for i in range(4)
        )
        if abs(5 * coeffs[1] + coeffs[3]) >= V2_MIN:
            return coeffs


def _ratio_gate(report, coeffs, target: float) -> bool:
    """nu_2 / (5 a50 + b41) equals I_2 / 60 from the frozen constants to 1e-8."""
    ratio = report.nu(2) / (5 * coeffs[1] + coeffs[3])
    return abs(ratio / target - 1.0) <= 1e-8


def _parity_gate(report, p: int, q: int) -> bool:
    """A resolved first index is odd when p + q is even and even when it is odd."""
    if not _resolved(report):
        return True
    return (report.first_nonzero_index % 2 == 1) == ((p + q) % 2 == 0)


# -- survey ---------------------------------------------------------------------


class Survey:
    """Random valid fields at four weight pairs plus quintic 2:3 fields.

    No two fields of one pass share a monomial support, so an engine that
    batches fields of one support finds nothing to batch here.
    """

    WEIGHTS = ((1, 1), (1, 2), (2, 3), (3, 4))
    RANDOM_PER_WEIGHT = 3
    QUINTIC_PER_PASS = 4
    PREPARED_PASSES = 32  # a run that outlasts them starts over at the first

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.target = casestudy.focal_ratio_constants()["nu2_over_V2"]
        self.passes = [self._draw_pass(rng) for _ in range(self.PREPARED_PASSES)]
        self.warm_field = focal.random_field(2, 3, rng)
        self.input_hash = _digest(
            [[(_field_key(f), c) for f, c in batch] for batch in self.passes]
        )

    def _draw_pass(self, rng) -> list:
        batch, seen = [], set()
        for p, q in self.WEIGHTS:
            while sum(1 for f, _ in batch if (f.p, f.q) == (p, q)) < self.RANDOM_PER_WEIGHT:
                f = focal.random_field(p, q, rng)
                if _support(f) not in seen:
                    seen.add(_support(f))
                    batch.append((f, None))
        for mask in rng.choice(QUINTIC_MASKS, size=self.QUINTIC_PER_PASS, replace=False):
            coeffs = _quintic(rng, int(mask))
            batch.append((casestudy.field23(*coeffs), coeffs))
        return batch

    def warm_up(self):
        focal.focal_values(self.warm_field)

    def run_pass(self, index: int) -> PassResult:
        outcomes, field_s = [], []
        for f, coeffs in self.passes[index % self.PREPARED_PASSES]:
            t0 = clock()
            report = _attempt(focal.focal_values, f)
            field_s.append(clock() - t0)
            outcomes.append((f, coeffs, report))
        return PassResult(outcomes, field_s)

    def gates(self, result: PassResult) -> list[tuple[str, bool]]:
        out = []
        for f, coeffs, report in result.outcomes:
            if isinstance(report, QhfocusError):
                out.append((f"field {f.p}:{f.q} raised {type(report).__name__}", False))
                continue
            ok = _parity_gate(report, f.p, f.q)
            if coeffs is not None:
                ok = ok and _ratio_gate(report, coeffs, self.target)
            out.append((f"field {f.p}:{f.q}", ok))
        return out

    def self_test(self, result: PassResult) -> dict[str, bool]:
        """True for each gate that rejects its deliberately wrong input."""
        resolved = next(
            (o for o in result.outcomes if o[1] is None and _resolved(o[2])), None
        )
        quintic = next(o for o in result.outcomes if o[1] is not None)
        fired = {"parity": False, "ratio": False, "error": False}
        if resolved is not None:
            f, coeffs, report = resolved
            # move the first nonzero value to an index of the other parity
            first = report.first_nonzero_index
            moved = first + 1 if first < report.order else first - 1
            values = list(report.values)
            values[moved - 2], values[first - 2] = values[first - 2], 0.0
            wrong = dataclasses.replace(
                report, values=tuple(values), first_nonzero_index=moved
            )
            fired["parity"] = not self.gates(PassResult([(f, coeffs, wrong)], []))[0][1]
        f, coeffs, report = quintic
        wrong = dataclasses.replace(report, values=(1.01 * report.values[0],) + report.values[1:])
        fired["ratio"] = not self.gates(PassResult([(f, coeffs, wrong)], []))[0][1]
        error = QhfocusError("injected")
        fired["error"] = not self.gates(PassResult([(f, coeffs, error)], []))[0][1]
        return fired


# -- cycles ----------------------------------------------------------------------


class Cycles:
    """The criterion-8 two-cycle search and scans, then the damped three-cycle scan.

    The search is the same in every pass; the seed jitters the scan end points
    inside ranges that keep every cycle of both scans strictly inside.
    """

    CHAIN_K, CHAIN_TOL = 7, 1e-13
    SEARCH = dict(
        target_signs=[1, -1, 1], box=[(1e-10, 1e-4), (1e-6, 0.3)], gap=[100.0, 10.0], scan_n=24
    )
    SCAN = dict(grid_n=64, tol=1e-13)
    POLAR_FLOOR, DAMPED_FLOOR = 1e-12, 1e-11
    # polar cycles sit near h = 0.089 and 0.290, damped ones near x = 0.024, 0.101, 0.242
    # narrow ranges: the scans' cost moves with the span, and a run holds one or two passes
    POLAR_LO, POLAR_HI = (0.035, 0.040), (0.445, 0.455)
    DAMPED_LO, DAMPED_HI = (0.011, 0.012), (0.425, 0.435)
    DAMPED = dict(a50=0.0, b41=1.0, sigma=0.1, delta0=6.70e-8, delta1=2.46e-4, delta2=2.72e-2)
    PREPARED_PASSES = 8

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.spans = [
            tuple(
                float(rng.uniform(*r))
                for r in (self.POLAR_LO, self.POLAR_HI, self.DAMPED_LO, self.DAMPED_HI)
            )
            for _ in range(self.PREPARED_PASSES)
        ]
        self.damped = casestudy.eq329_cartesian(**self.DAMPED)
        self.input_hash = _digest([self.SEARCH, self.DAMPED, self.spans])

    def _chain(self, field_s: list):
        """The search's chain function; one latency per chain evaluation."""

        def chain(eps):
            t0 = clock()
            rep = focal.focal_values(
                casestudy.eq325_field(eps[0], eps[1]), K=self.CHAIN_K, integ_tol=self.CHAIN_TOL
            )
            field_s.append(clock() - t0)
            return [rep.nu(2), rep.nu(4), rep.nu(6)]

        return chain

    def warm_up(self):
        # a field off the search path, so the warm-up cannot prime any cache it uses
        focal.focal_values(casestudy.eq325_field(0.5, 0.5), K=self.CHAIN_K, integ_tol=self.CHAIN_TOL)

    def run_pass(self, index: int) -> PassResult:
        polar_lo, polar_hi, damped_lo, damped_hi = self.spans[index % self.PREPARED_PASSES]
        field_s: list[float] = []
        t0 = clock()
        eps = _attempt(cycles.alternation_search, self._chain(field_s), **self.SEARCH)
        t1 = clock()
        polar = closures = None
        if not isinstance(eps, QhfocusError):
            field = casestudy.eq325_field(eps[0], eps[1])
            polar = _attempt(
                cycles.find_cycles, "polar", field, polar_lo, polar_hi,
                noise_floor=self.POLAR_FLOOR, **self.SCAN,
            )
            if not isinstance(polar, QhfocusError):
                closures = _attempt(
                    lambda: [
                        cycles.closure_error(field, c.h_star, field.p, tol=self.SCAN["tol"])
                        for c in polar.cycles
                    ]
                )
        damped = _attempt(
            cycles.find_cycles, "cartesian", self.damped, damped_lo, damped_hi,
            noise_floor=self.DAMPED_FLOOR, **self.SCAN,
        )
        t2 = clock()
        tuned = 0 if isinstance(eps, QhfocusError) else len(self.SEARCH["target_signs"]) - 1
        return PassResult(
            [eps, (polar, closures), damped],
            field_s,
            {"search_s": t1 - t0, "scan_s": t2 - t1},
            {"chain_evals": len(field_s), "tuned_entries": tuned},
        )

    @staticmethod
    def gates(result: PassResult) -> list[tuple[str, bool]]:
        eps, (polar, closures), damped = result.outcomes
        search_ok = not isinstance(eps, QhfocusError) and bool(eps[0] > 0 and eps[1] > 0)
        polar_ok = (
            isinstance(polar, cycles.CycleSet)
            and isinstance(closures, list)
            and len(polar.cycles) == 2
            and max(closures) <= 1e-8
        )
        damped_ok = (
            isinstance(damped, cycles.CycleSet)
            and len(damped.cycles) == 3
            and all(a.stability != b.stability for a, b in zip(damped.cycles, damped.cycles[1:]))
        )
        return [
            ("alternation search: eps > 0", search_ok),
            ("polar scan: 2 cycles, closure <= 1e-8", polar_ok),
            ("damped scan: 3 alternating cycles", damped_ok),
        ]

    def self_test(self, result: PassResult) -> dict[str, bool]:
        eps, (polar, closures), damped = result.outcomes

        def rejects(outcomes, gate: int) -> bool:
            return not self.gates(PassResult(outcomes, []))[gate][1]

        short = dataclasses.replace(polar, cycles=polar.cycles[:-1])
        same = [dataclasses.replace(c, stability=damped.cycles[0].stability) for c in damped.cycles]
        flipped = dataclasses.replace(damped, cycles=same)
        return {
            "search": rejects([np.array([-eps[0], eps[1]]), (polar, closures), damped], 0),
            "polar-count": rejects([eps, (short, closures[:-1]), damped], 1),
            "polar-closure": rejects([eps, (polar, [c + 1e-6 for c in closures]), damped], 1),
            "damped-count": rejects(
                [eps, (polar, closures), dataclasses.replace(damped, cycles=damped.cycles[:-1])], 2
            ),
            "damped-stability": rejects([eps, (polar, closures), flipped], 2),
        }


# -- extended --------------------------------------------------------------------


class Extended:
    """Quintic 2:3 fields through the extended-precision jet transport.

    One field per pass; its double-precision report is the reference.
    """

    K, DPS = 3, 20
    PREPARED_PASSES = 16
    WARM_THETA = 0.2  # a short arc: imports mpmath and runs odefun once

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.coeffs = [_quintic(rng) for _ in range(self.PREPARED_PASSES)]
        self.fields = [casestudy.field23(*c) for c in self.coeffs]
        self.warm_field = casestudy.field23(*_quintic(rng))
        self.input_hash = _digest(self.coeffs)

    def warm_up(self):
        flow.integrate_jet_extended(
            PolarRHS(self.warm_field), theta1=self.WARM_THETA, order=self.K, dps=self.DPS
        )

    def run_pass(self, index: int) -> PassResult:
        f = self.fields[index % self.PREPARED_PASSES]
        t0 = clock()
        ext = _attempt(focal.focal_values, f, K=self.K, precision="extended", dps=self.DPS)
        dbl = _attempt(focal.focal_values, f, K=self.K)
        return PassResult([(ext, dbl)], [clock() - t0])

    @staticmethod
    def gates(result: PassResult) -> list[tuple[str, bool]]:
        (ext, dbl), = result.outcomes
        ok = not isinstance(ext, QhfocusError) and not isinstance(dbl, QhfocusError)
        ok = ok and all(
            abs(e - d) <= 1e-10 * max(1.0, abs(d)) for e, d in zip(ext.values, dbl.values)
        )
        return [("extended agrees with double to 1e-10", ok)]

    def self_test(self, result: PassResult) -> dict[str, bool]:
        (ext, dbl), = result.outcomes
        # off by at least 100 times the gate's tolerance
        wrong = dataclasses.replace(ext, values=tuple(v * (1 + 1e-8) + 1e-8 for v in ext.values))
        return {"extended-agreement": not self.gates(PassResult([(wrong, dbl)], []))[0][1]}


WORKLOADS = {"survey": Survey, "cycles": Cycles, "extended": Extended}
