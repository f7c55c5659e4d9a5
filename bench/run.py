"""Run one qhfocus benchmark workload and print its metrics.

    python3 bench/run.py --workload {survey,cycles,extended} --seed N \
        --seconds S --trace {0,1}

Run from the root of a qhfocus checkout; the library is imported from its
``src/`` directory.  One process on one thread drives the library in a closed
loop with one caller: the next pass starts when the previous one has
returned, and only if it is predicted to end within its share of
``--seconds``.

``--trace 0`` reports the end-to-end metrics.  Its passes run in three fresh
interpreters, one after another, each for a third of ``--seconds``, and are
timed on the reference-speed clock of ``speed.py``.  ``--trace 1`` reports
the per-layer metrics from traced passes in this process, each paired with an
untraced pass on the same inputs.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it is
the run record.  Both, and in traced runs every span, are also written to
``bench/out/``.  See ``bench/NOTES.md`` for the workloads and metrics.
"""
import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported: one thread

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("survey", "cycles", "extended")
WORKERS = 3  # fresh interpreters per untraced run, one after another
DEADLINE_S = 170.0  # for all workers of a run together
SELF_SUM_TOL = 1e-9  # relative; self times telescope to the traced wall time


def setup(workload: str, seed: int):
    """Import the library, generate the inputs, make one warm-up call."""
    with speed.Probe() as probe:
        t0 = speed.clock()
        sys.path.insert(0, str(SRC))
        import qhfocus
        import workloads

        if Path(qhfocus.__file__).resolve().parent != (SRC / "qhfocus").resolve():
            raise SystemExit(f"imported {qhfocus.__file__}, not the checkout's library")
        wl = workloads.WORKLOADS[workload](seed)
        wl.warm_up()
        return wl, speed.clock() - t0, probe.speed()


class Tally:
    """Pass times, field latencies and gate outcomes of one kind of pass."""

    def __init__(self):
        self.walls: list[float] = []
        self.field_s: list[float] = []
        self.stage_s: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.sample = None  # first pass whose gates all passed, for the self-test

    def add(self, wl, result, wall: float):
        self.walls.append(wall)
        self.field_s.extend(result.field_s)
        for k, v in result.stage_s.items():
            self.stage_s[k].append(v)
        for k, v in result.counts.items():
            self.counts[k] += v
        gates = wl.gates(result)
        bad = [name for name, ok in gates if not ok]
        self.attempted += len(gates)
        self.failed += len(bad)
        self.failures.extend(bad)
        if not bad and self.sample is None:
            self.sample = result


def closed_loop(seconds: float, run_one):
    """Run passes 0, 1, ... while the next is predicted to end in time.

    The prediction is the median real time of the passes so far.
    """
    start, took = perf_counter(), []
    while True:
        t0 = perf_counter()
        run_one(len(took))
        took.append(perf_counter() - t0)
        if perf_counter() - start + statistics.median(took) > seconds:
            return


def timed_pass(wl, i: int, tally: Tally):
    t0 = speed.clock()
    result = wl.run_pass(i)
    tally.add(wl, result, speed.clock() - t0)


def tail(samples: list[float]):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    return {
        "percentile": 100.0 * (n - 10) / n,
        "value_ms": 1e3 * sorted(samples)[n - 11],
        "samples": n,
    }


def metric(value, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def worker(args) -> dict:
    """One fresh interpreter's share of an untraced run: set-up, then passes."""
    wl, setup_s, setup_speed = setup(args.workload, args.seed)
    first = args.worker * wl.PREPARED_PASSES // WORKERS  # each worker starts on other inputs
    tally = Tally()
    with speed.Probe() as probe:
        closed_loop(args.seconds, lambda i: timed_pass(wl, first + i, tally))
    return {
        "input_hash": wl.input_hash,
        "setup_s": setup_s,
        "setup_machine_speed": setup_speed,
        "machine_speed": probe.speed(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_s": tally.walls,
        "field_s": tally.field_s,
        "stage_s": tally.stage_s,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "gate_self_test": wl.self_test(tally.sample) if tally.sample is not None else {},
    }


def end_to_end(args):
    """Run the workers one after another and pool their passes."""
    deadline = perf_counter() + DEADLINE_S
    runs = []
    for k in range(WORKERS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds / WORKERS),
             "--worker", str(k)],
            capture_output=True, text=True, check=True, cwd=ROOT,
            timeout=max(1.0, deadline - perf_counter()),
        )
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    def pooled(key: str) -> list:
        return [x for r in runs for x in r[key]]

    walls, field_s = pooled("pass_s"), pooled("field_s")
    metrics = {
        "setup_s": metric(statistics.median(r["setup_s"] for r in runs), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "fields_per_s": metric(len(field_s) / sum(walls), "1/s"),
        "peak_rss_mb": metric(statistics.median(r["peak_rss_mb"] for r in runs), "MB"),
    }
    attempted, failed = sum(r["attempted"] for r in runs), sum(r["failed"] for r in runs)
    extra = {
        "pass_s": walls,
        "fields": len(field_s),
        "field_p50_ms": 1e3 * statistics.median(field_s),
        "field_tail": tail(field_s),
        "failed_frac": failed / attempted,
        "setup_samples_s": [r["setup_s"] for r in runs],
        "setup_machine_speed": [r["setup_machine_speed"] for r in runs],
        "machine_speed": [r["machine_speed"] for r in runs],
        "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
    }
    for k in runs[0]["stage_s"]:
        extra[k] = statistics.median(x for r in runs for x in r["stage_s"][k])
    tally = Tally()
    tally.attempted, tally.failed, tally.failures = attempted, failed, pooled("failures")
    # a gate counts as firing only if it fired in every worker
    tests = [r["gate_self_test"] for r in runs]
    self_test = {name: all(t.get(name, False) for t in tests) for name in tests[0]}
    hashes = {r["input_hash"] for r in runs}
    return tally, metrics, extra, self_test, runs[0]["input_hash"], len(hashes) == 1

def per_layer(wl, seconds: float):
    from tracing import ROOT_SPAN, Tracer

    tracer, plain, traced = Tracer(), Tally(), Tally()

    def pair(i: int):
        timed_pass(wl, i, plain)
        with tracer.install(), tracer.traced_pass(i):
            result = wl.run_pass(i)
        traced.add(wl, result, tracer.pass_s[-1])

    closed_loop(seconds, pair)
    n = len(traced.walls)
    calls, self_s, counters = tracer.calls, tracer.self_s, tracer.counters

    def per_pass(x) -> float:
        return x / n

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    m = {}
    comp, call = "polar.PolarRHS.components", "polar.PolarRHS.__call__"
    m[f"{comp}.calls"] = metric(per_pass(calls[comp]), "count")
    m[f"{comp}.us_per_call"] = metric(1e6 * ratio(self_s[comp], calls[comp]), "us")
    m[f"{comp}.self_s"] = metric(per_pass(self_s[comp]), "s")
    m[f"{call}.calls"] = metric(per_pass(calls[call]), "count")
    m[f"{call}.self_s"] = metric(per_pass(self_s[call]), "s")
    m["jets.mul_trunc.calls"] = metric(per_pass(calls["jets.mul_trunc"]), "count")
    m["jets.div_trunc.calls"] = metric(per_pass(calls["jets.div_trunc"]), "count")
    m["jets.self_s"] = metric(per_pass(self_s["jets.mul_trunc"] + self_s["jets.div_trunc"]), "s")
    for name in ("flow.integrate_jet", "flow.return_map", "flow.section_return",
                 "flow.integrate_jet_extended", "focal.focal_values", "fields.normalize",
                 "cycles.find_cycles", "cycles.alternation_search"):
        m[f"{name}.calls"] = metric(per_pass(calls[name]), "count")
        m[f"{name}.self_s"] = metric(per_pass(self_s[name]), "s")
    for name in ("flow.integrate_jet.rhs_evals", "flow.integrate_jet.steps"):
        m[name] = metric(per_pass(counters[name]), "count")
    m["focal.focal_values.resolved_ratio"] = metric(
        ratio(counters["focal.focal_values.resolved"], calls["focal.focal_values"]), "ratio"
    )
    disp, grid, roots = (
        tracer.displacement_evals(),
        counters["cycles.find_cycles.grid_evals"],
        counters["cycles.find_cycles.roots"],
    )
    m["cycles.find_cycles.displacement_evals"] = metric(per_pass(disp), "count")
    m["cycles.find_cycles.grid_evals"] = metric(per_pass(grid), "count")
    # each root costs its bisection steps plus one residual evaluation
    m["cycles.find_cycles.bisection_evals_per_root"] = metric(ratio(disp - grid - roots, roots), "count")
    chain, tuned = traced.counts["chain_evals"], traced.counts["tuned_entries"]
    m["cycles.alternation_search.chain_evals"] = metric(per_pass(chain), "count")
    m["cycles.alternation_search.useful_ratio"] = metric(ratio(tuned, chain), "ratio")
    m["bench.self_s"] = metric(per_pass(self_s[ROOT_SPAN]), "s")
    traced_wall = sum(traced.walls)
    m["trace.wall_s"] = metric(per_pass(traced_wall), "s")
    m["trace.overhead_frac"] = metric(traced_wall / sum(plain.walls) - 1.0, "ratio")

    self_sum_err = abs(sum(self_s.values()) - traced_wall) / traced_wall
    extra = {
        "passes": n,
        "untraced_wall_s": per_pass(sum(plain.walls)),
        "self_sum_rel_err": self_sum_err,
        "self_sum_tol": SELF_SUM_TOL,
    }
    merged = Tally()
    for t in (plain, traced):
        merged.attempted += t.attempted
        merged.failed += t.failed
        merged.failures += t.failures
        merged.sample = merged.sample or t.sample
    if self_sum_err > SELF_SUM_TOL:
        merged.failures.append(f"self times miss the traced wall time by {self_sum_err:.2e}")
    return merged, m, extra, tracer.span_records()


def run_record(args, input_hash, hash_ok) -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "input_hash": input_hash,
        "input_hash_reproduced": hash_ok,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", type=int, default=None,
                    help="internal: run worker K of an untraced run, print its raw results")
    args = ap.parse_args(argv)
    if not (SRC / "qhfocus" / "__init__.py").is_file():
        print(f"error: no qhfocus sources under {SRC}", file=sys.stderr)
        return 2

    if args.worker is not None:
        print(json.dumps(worker(args)))
        return 0

    spans = None
    if args.trace:
        wl, _, _ = setup(args.workload, args.seed)
        hash_ok = None  # the input hash is re-derived in untraced runs only
        tally, metrics, extra, spans = per_layer(wl, args.seconds)
        self_test = wl.self_test(tally.sample) if tally.sample is not None else {}
        input_hash = wl.input_hash
    else:
        tally, metrics, extra, self_test, input_hash, hash_ok = end_to_end(args)

    gates_fire = bool(self_test) and all(self_test.values())
    correct = tally.failed == 0 and hash_ok is not False and gates_fire and not tally.failures
    record = run_record(args, input_hash, hash_ok)
    record.update(extra, gate_self_test=self_test, failures=tally.failures[:20])

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    payload = {"record": record, "metrics": metrics}
    if spans is not None:
        payload["spans"] = spans
    out_file.write_text(json.dumps(payload, indent=1))

    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
