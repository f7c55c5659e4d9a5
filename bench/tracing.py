"""Span and counter tracing of qhfocus, installed from outside the library.

``Tracer.install`` replaces public functions of the library by timing
wrappers and restores the originals on exit, so nothing under ``src/`` knows
it is traced.  Two kinds of wrapper:

* spans, around the layer boundaries (``focal_values``, ``integrate_jet``,
  ``return_map`` ...): one record (name, start, end, parent span, pass id)
  per call, kept in memory and written out when the run ends;
* leaves, around the hot inner functions (``PolarRHS.components``,
  ``PolarRHS.__call__``, ``jets.mul_trunc``, ``jets.div_trunc``): called
  millions of times, so they keep only a call counter and an aggregate timer.

Self time of a span is its duration minus the time covered by its child spans
and by the leaves called directly inside it; a leaf's self time excludes the
leaves nested in it.  Every interval is charged to exactly one owner, so the
self times of one pass sum to the duration of its root span.
"""
from __future__ import annotations

import contextlib
from collections import defaultdict
from time import perf_counter

from qhfocus import cycles, flow, focal, jets, polar

ROOT_SPAN = "bench.pass"

# (qualified span name, objects whose attribute is replaced, attribute name)
SPANS = (
    ("focal.focal_values", (focal,), "focal_values"),
    ("flow.integrate_jet", (flow,), "integrate_jet"),
    ("flow.integrate_jet_extended", (flow,), "integrate_jet_extended"),
    ("flow.return_map", (flow,), "return_map"),
    ("flow.section_return", (flow,), "section_return"),
    ("cycles.find_cycles", (cycles,), "find_cycles"),
    ("cycles.alternation_search", (cycles,), "alternation_search"),
    # focal and cycles bind normalize by name, so both bindings are replaced
    ("fields.normalize", (focal, cycles), "normalize"),
)
LEAVES = (
    ("polar.PolarRHS.components", polar.PolarRHS, "components"),
    ("polar.PolarRHS.__call__", polar.PolarRHS, "__call__"),
    ("jets.mul_trunc", jets, "mul_trunc"),
    ("jets.div_trunc", jets, "div_trunc"),
)


class Tracer:
    """Spans, leaf counters and self times of the traced passes of one run."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, pass id]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []  # indices of open spans, innermost last
        self._covered: list[float] = []  # child time inside each open span
        self._leaf_covered: list[float] = []  # nested-leaf time inside open leaves
        self._pass_id: int | None = None
        self.pass_s: list[float] = []  # duration of each traced pass (root span)

    # -- wrappers -------------------------------------------------------------

    def _enter(self, name: str) -> tuple[int, float]:
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, 0.0, 0.0, parent, self._pass_id])
        self._open.append(index)
        self._covered.append(0.0)
        return index, perf_counter()

    def _exit(self, index: int, t0: float):
        t1 = perf_counter()
        self._open.pop()
        covered = self._covered.pop()
        record = self.spans[index]
        record[1], record[2] = t0, t1
        self.calls[record[0]] += 1
        self.self_s[record[0]] += (t1 - t0) - covered
        if self._covered:
            self._covered[-1] += t1 - t0

    def _span(self, name: str, fn):
        def traced(*args, **kwargs):
            index, t0 = self._enter(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit(index, t0)
            self._observe(name, out)
            return out

        return traced

    def _leaf(self, name: str, fn):
        def counted(*args, **kwargs):
            self._leaf_covered.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                nested = self._leaf_covered.pop()
                self.calls[name] += 1
                self.self_s[name] += elapsed - nested
                if self._leaf_covered:
                    self._leaf_covered[-1] += elapsed
                elif self._covered:
                    self._covered[-1] += elapsed
                else:
                    raise RuntimeError(f"{name} called outside a traced pass")

        return counted

    def _observe(self, name: str, out):
        """Counters read from the public results of a traced call."""
        if name == "flow.integrate_jet":
            self.counters["flow.integrate_jet.rhs_evals"] += out.stats.n_rhs_evals
            self.counters["flow.integrate_jet.steps"] += out.stats.n_steps
        elif name == "focal.focal_values":
            first = out.first_nonzero_index
            if first is not None and abs(out.nu(first)) > 10 * out.zero_tol:
                self.counters["focal.focal_values.resolved"] += 1
        elif name == "cycles.find_cycles":
            self.counters["cycles.find_cycles.grid_evals"] += out.grid_n
            self.counters["cycles.find_cycles.roots"] += len(out.cycles)

    # -- installation -----------------------------------------------------------

    @contextlib.contextmanager
    def install(self):
        """Replace the traced functions; restore the originals on exit."""
        saved = []
        try:
            for name, owners, attr in SPANS:
                original = getattr(owners[0], attr)
                wrapper = self._span(name, original)
                for owner in owners:
                    saved.append((owner, attr, getattr(owner, attr)))
                    setattr(owner, attr, wrapper)
            for name, owner, attr in LEAVES:
                saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, self._leaf(name, getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def traced_pass(self, pass_id: int):
        """Root span of one pass; every traced call inside it is its descendant."""
        self._pass_id = pass_id
        index, t0 = self._enter(ROOT_SPAN)
        try:
            yield
        finally:
            self._exit(index, t0)
            self._pass_id = None
            record = self.spans[index]
            self.pass_s.append(record[2] - record[1])

    # -- derived numbers ----------------------------------------------------------

    def displacement_evals(self) -> int:
        """return_map / section_return calls made directly by find_cycles."""
        scans = {i for i, s in enumerate(self.spans) if s[0] == "cycles.find_cycles"}
        return sum(
            1
            for s in self.spans
            if s[0] in ("flow.return_map", "flow.section_return") and s[3] in scans
        )

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": a, "end": b, "parent": p, "pass": k}
            for n, a, b, p, k in self.spans
        ]
