"""Command-line front end: analysis, cycle search, and verification reports.

Subcommands
    analyze    focal values and classification of a weighted field
    cycles     displacement scan and limit-cycle isolation
    verify     case-study claim table (reference integrals, ratios, cycles)
    quad       reference-integral table under both quadrature schemes
    jacobian   focal-value Jacobian of a named parameter family
    survey     parity statistics over random fields at given weights

Every report is plain UTF-8 text; ``--out`` additionally writes the text plus
a JSON document and a CSV table next to it.  Exit status: 0 on success, 1 on
usage, input or integration errors, 2 when a reproduction check fails.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import casestudy, focal
from .cycles import find_cycles, closure_error
from .errors import QhfocusError, ReproductionError
from .fields import WeightedField, load_system, format_system, normalize
from .polar import PolarRHS, rq_table
from .quadrature import trapezoid_periodic, gauss_panels

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_REPRODUCTION = 2


def _parse_params(text: str | None) -> dict[str, float]:
    if not text:
        return {}
    out = {}
    for piece in text.split(","):
        if "=" not in piece:
            raise ValueError(f"malformed --params entry {piece!r}, expected k=v")
        key, val = piece.split("=", 1)
        out[key.strip()] = float(val)
    return out


def _family_values(args) -> tuple[casestudy.Family, dict[str, float]]:
    family = casestudy.FAMILIES[args.family]
    return family, family.values(_parse_params(args.params))


def _load_field(args) -> WeightedField:
    if args.system:
        return load_system(args.system)
    if args.family:
        family, values = _family_values(args)
        return family.field(**values)
    raise ValueError("provide --system <path> or --family <name>")


def _json_value(obj):
    return obj.tolist() if isinstance(obj, np.ndarray) else float(obj)


def _emit(args, lines: list[str], doc: dict, rows: list[list]) -> None:
    """Print the report; --out also writes it, its JSON (command name first) and its CSV."""
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        base = Path(args.out)
        base.write_text(text, encoding="utf-8")
        doc = {"command": args.command, **doc}
        base.with_suffix(".json").write_text(
            json.dumps(doc, indent=2, default=_json_value) + "\n", encoding="utf-8"
        )
        if rows:
            with base.with_suffix(".csv").open("w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(rows)


# -- analyze ----------------------------------------------------------------------


def cmd_analyze(args) -> int:
    field = _load_field(args)
    report = focal.focal_values(
        field,
        K=args.order,
        tol=args.zero_tol,
        integ_tol=args.tol,
        precision=args.precision,
    )
    struct = focal.structural_center(field)
    lines = [
        "focal analysis",
        f"  weights           p={field.p} q={field.q} (gcd {report.weight_gcd})",
        f"  jet order         K={report.order}",
        f"  integrator tol    {report.integ_tol:g}",
        f"  zero tol          {args.zero_tol:g}",
        f"  parity class      {report.parity_class}",
        f"  verdict           {report.verdict}",
        f"  first nonzero     {report.first_nonzero_index}",
        f"  focus order       {report.focus_order}",
    ]
    indices = range(1, report.order + 1)
    for k in indices:
        lines.append(f"  nu_{k:<2d} = {report.nu(k):+.15e}  (tol {report.integ_tol:g})")
    lines.append(f"  hamiltonian       {struct['hamiltonian']}")
    lines.append(f"  x-axis reversible {struct['x-axis']}")
    lines.append(f"  y-axis reversible {struct['y-axis']}")
    rows = [["k", "nu_k", "tol"]]
    rows += [[k, report.nu(k), report.integ_tol] for k in indices]
    if args.rq_table:
        table = rq_table(PolarRHS(normalize(field).field), np.linspace(0.0, 2 * np.pi, 181))
        with Path(args.rq_table).open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(table.tolist())
        lines.append(f"  R/Q table of the normalized field written to {args.rq_table}")
    doc = {
        "p": field.p,
        "q": field.q,
        "order": report.order,
        "tol": report.integ_tol,
        "zero_tol": args.zero_tol,
        "precision": args.precision,
        "parity_class": report.parity_class,
        "verdict": report.verdict,
        "first_nonzero_index": report.first_nonzero_index,
        "focus_order": report.focus_order,
        "values": {str(k): report.nu(k) for k in indices},
        "structural": struct,
        "system": format_system(field),
        "diagnostics": {"rhs_evals": report.rhs_evals, "steps": report.steps},
    }
    _emit(args, lines, doc, rows)
    return EXIT_OK


# -- cycles -----------------------------------------------------------------------


def cmd_cycles(args) -> int:
    # the scan and the closure check both run in normalized coordinates
    field = normalize(_load_field(args)).field
    coordinates = "normalized (lambda1=p, lambda2=q)"
    result = find_cycles(
        "polar",
        field,
        args.h_min,
        args.h_max,
        grid_n=args.grid,
        tol=args.tol,
        noise_floor=args.noise_floor,
    )
    lines = [
        "cycle search",
        f"  backend        {result.backend}",
        f"  h* coordinates {coordinates}",
        f"  h range        [{args.h_min:g}, {args.h_max:g}] on {args.grid} points",
        f"  integrator tol {args.tol:g}",
        f"  cycles found   {len(result.cycles)}",
    ]
    for c in result.cycles:
        err = closure_error(field, c.h_star, field.p, tol=args.tol)
        lines.append(
            f"  h* = {c.h_star:.12f}  {c.stability:8s} residual {c.residual:.3e}"
            f" (tol {args.tol:g})  cartesian closure {err:.3e}"
        )
    rows = [["h", "Delta", "tol"]] + [[h, d, args.tol] for h, d in result.scan]
    doc = {
        "backend": result.backend,
        "h_star_coordinates": coordinates,
        "h_min": args.h_min,
        "h_max": args.h_max,
        "grid": args.grid,
        "tol": args.tol,
        "cycles": [dataclasses.asdict(c) for c in result.cycles],
        "diagnostics": {"grid_s": result.grid_s, "refine_s": result.refine_s},
    }
    _emit(args, lines, doc, rows)
    return EXIT_OK


# -- verify -----------------------------------------------------------------------


def cmd_verify(args) -> int:
    t0 = time.time()
    lines = ["case-study verification"]
    rows = [["row", "value", "target", "tol", "pass"]]
    doc: dict = {"rows": {}}
    failures = []

    def row(name, value, target, tol, ok):
        mark = "pass" if ok else "FAIL"
        lines.append(
            f"  [{mark}] {name:28s} value={value:.12e} target={target!r} tol={tol:g}"
        )
        rows.append([name, value, target, tol, mark])
        doc["rows"][name] = {
            "value": float(value),
            "target": target,
            "tol": tol,
            "pass": bool(ok),
        }
        if not ok:
            failures.append(name)

    fresh = casestudy.compute_reference_constants(tol=args.tol)
    frozen = casestudy.reference_constants()
    for key in ("I2", "I4", "IA", "IB"):
        rel = abs(fresh[key] / frozen[key] - 1.0)
        row(f"integral {key} vs frozen", fresh[key], frozen[key], 1e-10, rel <= 1e-10)

    v322 = casestudy.verify_322(tol=args.tol)
    row(
        f"combined prefactor ({v322.reading_used})",
        v322.combination_value,
        casestudy.EQ322_TARGET,
        1e-4,
        v322.ok,
    )

    ratios = casestudy.focal_ratio_constants()
    rng = np.random.default_rng(args.seed)

    samples = rng.uniform(-1.0, 1.0, size=(3, 4))
    errs = []
    for a22, a50, b13, b41 in samples:
        field = casestudy.field23(a22=a22, a50=a50, b13=b13, b41=b41)
        rep = focal.focal_values(field, K=3, integ_tol=args.tol)
        v2 = casestudy.predicted_V(field)[0]
        if abs(v2) < 0.1:
            continue
        errs.append(abs(rep.nu(2) / (ratios["nu2_over_V2"] * v2) - 1.0))
    row("nu2 / ((1/60) I2 V2)", 1.0 + max(errs), 1.0, 1e-8, max(errs) <= 1e-8)

    errs = []
    for _ in range(3):
        a22, b13, b41 = rng.uniform(0.2, 1.0, size=3)
        field = casestudy.field23(a22=a22, a50=-b41 / 5, b13=b13, b41=b41)
        rep = focal.focal_values(field, K=5, integ_tol=args.tol)
        v4 = casestudy.predicted_V(field)[1]
        errs.append(abs(rep.nu(4) / (ratios["nu4_over_V4"] * v4) - 1.0))
    row("nu4 / ((13/16800) I4 V4)", 1.0 + max(errs), 1.0, 1e-5, max(errs) <= 1e-5)

    errs = []
    for _ in range(2):
        b13, b41 = rng.uniform(0.2, 1.0, size=2)
        a22 = 0.6 * b13  # V4 = 0 slice
        field = casestudy.field23(a22=a22, a50=-b41 / 5, b13=b13, b41=b41)
        rep = focal.focal_values(field, K=7, integ_tol=args.tol)
        v6 = casestudy.predicted_V(field)[2]
        errs.append(abs(rep.nu(6) / (ratios["nu6_over_V6"] * v6) - 1.0))
    row("nu6 / (c6 V6)", 1.0 + max(errs), 1.0, 1e-4, max(errs) <= 1e-4)

    u2 = max(
        casestudy.verify_u2(
            np.linspace(0.3, 2 * np.pi, 8), casestudy.field23(0.7, 1.0, -0.3, 1.0)
        )
    )
    row("u2 closed form residual", u2, 0.0, 1e-10, u2 <= 1e-10)

    thm = casestudy.verify_thm34()
    row("thm34 lambda1,2 residual", thm.lambda12_max, 0.0, 1e-10, thm.lambda12_max <= 1e-10)
    row("thm34 ratio spread", thm.ratio_spread, 0.0, 1e-4, thm.ratio_spread <= 1e-4)
    row(
        "thm34 ratio / (47/128)",
        thm.ratio_over_documented,
        float(np.pi),
        1e-6,
        thm.matches_documented,
    )

    lines.append(f"  elapsed {time.time() - t0:.1f}s")
    doc["elapsed_seconds"] = time.time() - t0
    doc["failures"] = failures
    _emit(args, lines, doc, rows)
    if failures:
        sys.stderr.write(
            "reproduction failure in rows: " + ", ".join(failures) + "\n"
        )
        return EXIT_REPRODUCTION
    return EXIT_OK


# -- quad -------------------------------------------------------------------------


def cmd_quad(args) -> int:
    lines = ["reference integrals, two independent schemes"]
    rows = [["integral", "trapezoid", "gauss", "difference", "tol"]]
    doc = {"tol": args.tol, "integrals": {}}
    worst = 0.0
    for name, (f, g) in casestudy.reference_integrands().items():
        a = trapezoid_periodic(f, tol=args.tol)
        b = gauss_panels(g, tol=args.tol)
        diff = abs(a.value - b.value)
        worst = max(worst, diff / max(1.0, abs(a.value)))
        lines.append(
            f"  {name}: trapezoid={a.value:.15e} ({a.nodes_used} nodes)"
            f"  gauss={b.value:.15e} ({b.nodes_used} nodes)"
            f"  |diff|={diff:.3e} (tol {args.tol:g})"
        )
        rows.append([name, a.value, b.value, diff, args.tol])
        doc["integrals"][name] = {
            "trapezoid": a.value,
            "gauss": b.value,
            "difference": diff,
        }
    _emit(args, lines, doc, rows)
    if worst > 1e-10:
        sys.stderr.write("quadrature schemes disagree beyond 1e-10 relative\n")
        return EXIT_REPRODUCTION
    return EXIT_OK


# -- jacobian ---------------------------------------------------------------------


def cmd_jacobian(args) -> int:
    family, values = _family_values(args)
    names = list(family.jacobian_params)
    indices = family.jacobian_indices
    eps0 = np.array([values[n] for n in names])

    def at(eps):
        return family.field(**{**values, **dict(zip(names, eps))})

    res = focal.focal_jacobian(at, eps0, indices, K=args.order, integ_tol=args.tol)
    lines = [
        "focal-value jacobian",
        f"  family      {args.family}",
        f"  parameters  {', '.join(names)} at {eps0.tolist()}",
        f"  indices     {list(res.indices)}",
        f"  tol         {args.tol:g}",
        f"  rank        {res.rank}" + ("  (ill conditioned)" if res.ill_conditioned else ""),
        f"  singular values {np.array2string(res.singular_values, precision=6)}",
    ]
    rows = [["index"] + names]
    for i, k in enumerate(res.indices):
        vals = res.matrix[i, :]
        lines.append(f"  d nu_{k} / d({', '.join(names)}) = {np.array2string(vals, precision=9)}")
        rows.append([k] + vals.tolist())
    doc = {
        "family": args.family,
        "parameters": names,
        "point": eps0.tolist(),
        "tol": args.tol,
        **dataclasses.asdict(res),
    }
    _emit(args, lines, doc, rows)
    return EXIT_OK


# -- survey -----------------------------------------------------------------------


def cmd_survey(args) -> int:
    pairs = [tuple(int(v) for v in pq.split(":")) for pq in args.weights.split(",")]
    lines = [f"parity survey, seed {args.seed}, {args.samples} samples per weight pair"]
    rows = [["p", "q", "expected_parity", "samples", "skipped", "unresolved", "parity_ok"]]
    doc = {"seed": args.seed, "tol": args.tol, "results": []}
    all_ok = True
    for p, q in pairs:
        res = focal.parity_survey(
            p, q, n_samples=args.samples, seed=args.seed, integ_tol=args.tol
        )
        all_ok = all_ok and res.parity_ok
        lines.append(
            f"  ({p}:{q}) expected {res.expected_parity} indices: "
            f"{res.n_samples} sampled, {res.n_skipped} skipped, "
            f"{res.n_unresolved} unresolved, counts {dict(sorted(res.first_index_counts.items()))}, "
            f"parity_ok={res.parity_ok} (tol {args.tol:g})"
        )
        rows.append(
            [p, q, res.expected_parity, res.n_samples, res.n_skipped, res.n_unresolved, res.parity_ok]
        )
        doc["results"].append(
            {
                "p": p,
                "q": q,
                "expected_parity": res.expected_parity,
                "n_samples": res.n_samples,
                "n_skipped": res.n_skipped,
                "n_unresolved": res.n_unresolved,
                "first_index_counts": {str(k): v for k, v in res.first_index_counts.items()},
                "parity_ok": res.parity_ok,
            }
        )
    _emit(args, lines, doc, rows)
    return EXIT_OK if all_ok else EXIT_REPRODUCTION


# -- entry point ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qhfocus",
        description="focal values, centers, and limit cycles of weighted-homogeneous planar fields",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tol_default=1e-12):
        p.add_argument("--tol", type=float, default=tol_default, help="integrator tolerance")
        p.add_argument("--out", help="write report text here, plus .json and .csv siblings")

    def family(p, required=False):
        p.add_argument(
            "--family", choices=sorted(casestudy.FAMILIES), required=required,
            help="named parameter family",
        )
        p.add_argument("--params", help="family parameters, k=v,...")

    def source(p):
        p.add_argument("--system", help="system description file")
        family(p)

    p = sub.add_parser("analyze", help="focal values and classification")
    common(p)
    source(p)
    p.add_argument("--order", type=int, default=None, help="jet truncation order K")
    p.add_argument("--zero-tol", type=float, default=1e-9, help="focal-value zero threshold")
    p.add_argument("--precision", choices=["double", "extended"], default="double")
    p.add_argument("--rq-table", help="write the angular R/Q component table to this CSV")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser("cycles", help="displacement scan and cycle isolation")
    common(p, tol_default=1e-13)
    source(p)
    p.add_argument("--h-min", type=float, required=True)
    p.add_argument("--h-max", type=float, required=True)
    p.add_argument("--grid", type=int, default=48, help="scan grid size")
    p.add_argument("--noise-floor", type=float, default=None)
    p.set_defaults(fn=cmd_cycles)

    p = sub.add_parser("verify", help="case-study claim table")
    common(p)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("quad", help="reference integrals under both schemes")
    common(p)
    p.set_defaults(fn=cmd_quad)

    p = sub.add_parser("jacobian", help="focal-value jacobian of a family")
    common(p)
    family(p, required=True)
    p.add_argument("--order", type=int, default=None)
    p.set_defaults(fn=cmd_jacobian)

    p = sub.add_parser("survey", help="parity statistics over random fields")
    common(p)
    p.add_argument("--weights", default="1:1,1:2,2:3,3:4", help="comma list of p:q pairs")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(fn=cmd_survey)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on a usage error, but 2 is a reproduction failure
        return EXIT_INPUT if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except ReproductionError as exc:
        sys.stderr.write(f"reproduction failure: {exc}\n")
        return EXIT_REPRODUCTION
    except (QhfocusError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
