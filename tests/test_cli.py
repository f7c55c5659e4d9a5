import ast
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from qhfocus import casestudy, cli, flow
from qhfocus.casestudy import (
    FAMILIES,
    b_integrand_factory,
    eq325_field,
    f2_integrand,
    nested_f2,
    reference_integrands,
)
from qhfocus.cli import main
from qhfocus.cycles import closure_error, find_cycles
from qhfocus.fields import load_system, normalize
from qhfocus.focal import focal_jacobian, focal_values, parity_survey
from qhfocus.polar import PolarRHS, rq_table
from qhfocus.quadrature import PanelAntiderivative, cross_checked, gauss_panels, trapezoid_periodic

SYSTEM_31 = """\
# 2:3 weighted system
p 2
q 3
x 5 0 1.0
y 4 1 1.0
"""


SAMPLE_SYSTEM = Path(__file__).resolve().parents[1] / "demos" / "sample_system.txt"


@pytest.fixture
def system_file(tmp_path):
    path = tmp_path / "system.txt"
    path.write_text(SYSTEM_31, encoding="utf-8")
    return path


def test_analyze_reports_first_order_focus(system_file, capsys):
    code = main(["analyze", "--system", str(system_file)])
    out = capsys.readouterr().out
    assert code == 0
    assert "focus order       1" in out
    assert "weak-focus" in out


def test_analyze_empty_file_exits_1(tmp_path, capsys):
    path = tmp_path / "empty.txt"
    path.write_text("", encoding="utf-8")
    assert main(["analyze", "--system", str(path)]) == 1


def test_analyze_rejects_a_low_weight_term(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(SYSTEM_31 + "x 1 1 1.0\n", encoding="utf-8")
    assert main(["analyze", "--system", str(path)]) == 1
    assert "weight-bound at (1,1)" in capsys.readouterr().err


def test_analyze_missing_file_exits_1(tmp_path):
    assert main(["analyze", "--system", str(tmp_path / "nope.txt")]) == 1


def test_analyze_writes_artifacts(system_file, tmp_path, capsys):
    out = tmp_path / "report.txt"
    code = main(["analyze", "--system", str(system_file), "--out", str(out)])
    assert code == 0
    assert out.exists()
    doc = json.loads(out.with_suffix(".json").read_text())
    assert doc["focus_order"] == 1
    assert list(doc["values"]) == [str(k) for k in range(1, doc["order"] + 1)]
    assert doc["values"]["1"] == pytest.approx(1.0, abs=1e-12)
    assert out.with_suffix(".csv").read_text().startswith("k,nu_k,tol\n1,")


def test_analyze_json_records_integrator_work(system_file, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["analyze", "--system", str(system_file), "--out", str(out)]) == 0
    diag = json.loads(out.with_suffix(".json").read_text())["diagnostics"]
    report = focal_values(load_system(system_file))
    assert diag == {"rhs_evals": report.rhs_evals, "steps": report.steps,
                    "error_estimate": list(report.error_estimate)}
    # the staged program runs on 32 nodes per panel, and the panels double from 8
    # to at least 16, so the accepted set is not the only one evaluated
    assert diag["rhs_evals"] >= 32 * diag["steps"] and diag["steps"] >= 16
    assert diag["rhs_evals"] > 32 * diag["steps"]
    assert len(diag["error_estimate"]) == report.order - 1
    scale = max(1.0, *map(abs, report.values), abs(report.nu1))
    assert all(0 < e <= report.integ_tol * scale for e in diag["error_estimate"])


def test_analyze_json_records_extended_integrator_work(system_file, tmp_path, capsys):
    out = tmp_path / "report.txt"
    argv = ["analyze", "--system", str(system_file), "--precision", "extended", "--order", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    diag = json.loads(out.with_suffix(".json").read_text())["diagnostics"]
    report = focal_values(load_system(system_file), K=3, precision="extended")
    assert diag == {"rhs_evals": report.rhs_evals, "steps": report.steps, "error_estimate": None}
    # M = ceil(-ln(1e-30) / 2 + 1) = 36 Taylor coefficients per step at dps 30
    assert diag["rhs_evals"] == 36 * diag["steps"] > 0


def test_analyze_reports_the_scaled_zero_tolerance(tmp_path, capsys):
    # the verdict compares at --zero-tol times max(1, |nu_k|), k >= 2: here
    # 1.96e-9, where the report used to print and record the 1e-9 given
    out = tmp_path / "analyze.txt"
    argv = ["analyze", "--family", "eq327", "--params", "a50=3,b41=2", "--out", str(out)]
    assert main(argv) == 0
    family = FAMILIES["eq327"]
    report = focal_values(family.field(**family.values({"a50": 3.0, "b41": 2.0})))
    assert report.zero_tol > 1.9e-9
    line = next(l for l in capsys.readouterr().out.splitlines() if "zero tol" in l)
    assert line.split()[2] == f"{report.zero_tol:g}" and "--zero-tol 1e-09" in line
    doc = json.loads(out.with_suffix(".json").read_text())
    assert (doc["zero_tol"], doc["zero_tol_given"]) == (report.zero_tol, 1e-9)


def test_analyze_rq_table(system_file, tmp_path, capsys):
    table = tmp_path / "rq.csv"
    code = main(["analyze", "--system", str(system_file), "--rq-table", str(table)])
    assert code == 0
    assert len(table.read_text().splitlines()) == 181


def test_verify_passes_and_is_deterministic(capsys):
    assert main(["verify"]) == 0
    first = capsys.readouterr().out
    assert main(["verify"]) == 0
    second = capsys.readouterr().out
    assert [l for l in first.splitlines() if "elapsed" not in l] == [
        l for l in second.splitlines() if "elapsed" not in l
    ]
    assert "FAIL" not in first


def test_verify_cross_checks_each_reference_integral_once(fresh_caches, monkeypatch, capsys):
    # the constants and Eq. 3.22 share IA and IB: 4 cross-checks for the 4
    # integrals, where each computed its own (6); a second verify makes none
    # and prints the same text
    calls = []

    def counted(f, g, tol):
        calls.append(tol)
        return cross_checked(f, g, tol)

    monkeypatch.setattr(casestudy, "cross_checked", counted)
    texts = []
    for _ in range(2):
        assert main(["verify"]) == 0
        texts.append([l for l in capsys.readouterr().out.splitlines() if "elapsed" not in l])
    assert calls == [1e-12] * 4
    assert texts[0] == texts[1]


def test_quad_schemes_agree(capsys):
    assert main(["quad"]) == 0
    out = capsys.readouterr().out
    for name in ("I2", "I4", "IA", "IB"):
        assert name in out


def test_quad_ib_schemes_share_no_backend(tmp_path, capsys):
    # IB nests f2: the trapezoid side takes it from the Fourier antiderivative,
    # the Gauss side from the one on Chebyshev panels
    out = tmp_path / "quad.txt"
    assert main(["quad", "--out", str(out)]) == 0
    ib = json.loads(out.with_suffix(".json").read_text())["integrals"]["IB"]
    f2_panels = PanelAntiderivative(f2_integrand)
    assert ib["gauss"] == gauss_panels(b_integrand_factory(f2_panels), tol=1e-12).value
    assert ib["trapezoid"] == trapezoid_periodic(b_integrand_factory(nested_f2), tol=1e-12).value


def test_quad_json_records_the_node_counts(tmp_path, capsys):
    out = tmp_path / "quad.txt"
    assert main(["quad", "--out", str(out)]) == 0
    doc = json.loads(out.with_suffix(".json").read_text())["integrals"]
    for name, (f, g) in reference_integrands().items():
        nodes = (trapezoid_periodic(f).nodes_used, gauss_panels(g).nodes_used)
        assert (doc[name]["trapezoid_nodes"], doc[name]["gauss_nodes"]) == nodes


def test_cycles_family_eq325(capsys):
    code = main(
        [
            "cycles",
            "--family", "eq325",
            "--params", "eps1=1.22e-08,eps2=2.41e-04",
            "--h-min", "0.03",
            "--h-max", "0.45",
            "--grid", "48",
            "--noise-floor", "1e-12",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "cycles found   2" in out


def test_cycles_json_records_are_the_library_cycles(tmp_path, capsys):
    out = tmp_path / "cycles.txt"
    argv = [
        "cycles", "--family", "eq325", "--params", "eps1=1.22e-08,eps2=2.41e-04",
        "--h-min", "0.03", "--h-max", "0.45", "--grid", "16", "--noise-floor", "1e-12",
        "--out", str(out),
    ]
    assert main(argv) == 0
    doc = json.loads(out.with_suffix(".json").read_text())
    field = normalize(eq325_field(1.22e-08, 2.41e-04)).field
    result = find_cycles("polar", field, 0.03, 0.45, grid_n=16, tol=1e-13, noise_floor=1e-12)
    assert len(result.cycles) == 2
    assert doc["cycles"] == json.loads(json.dumps([dataclasses.asdict(c) for c in result.cycles]))
    assert doc["diagnostics"]["grid_s"] > 0 and doc["diagnostics"]["refine_s"] > 0
    # the grid radii whose |Delta| fell below the noise floor
    assert doc["diagnostics"]["indeterminate"] == result.indeterminate
    assert result.indeterminate == [h for h, d in result.scan if abs(d) < 1e-12]
    argv[argv.index("1e-12")] = "1e-9"
    assert main(argv) == 0
    doc = json.loads(out.with_suffix(".json").read_text())
    noisy = [h for h, d in result.scan if abs(d) < 1e-9]
    assert noisy and doc["diagnostics"]["indeterminate"] == noisy


def test_cycles_json_records_the_closures(tmp_path, capsys):
    out = tmp_path / "cycles.txt"
    argv = [
        "cycles", "--family", "eq325", "--params", "eps1=1.22e-08,eps2=2.41e-04",
        "--h-min", "0.03", "--h-max", "0.45", "--grid", "16", "--noise-floor", "1e-12",
        "--out", str(out),
    ]
    assert main(argv) == 0
    printed = [float(l.split("closure")[1]) for l in capsys.readouterr().out.splitlines()
               if "closure" in l]
    doc = json.loads(out.with_suffix(".json").read_text())
    field = normalize(eq325_field(1.22e-08, 2.41e-04)).field
    closures = [closure_error(field, c["h_star"], field.p, tol=1e-13) for c in doc["cycles"]]
    assert len(closures) == 2 and doc["closures"] == closures
    assert printed == [float(f"{e:.3e}") for e in closures]


@pytest.mark.parametrize("flag, value", [
    ("--noise-floor", "-1"), ("--noise-floor", "nan"), ("--noise-floor", "inf"),
    ("--h-min", "nan"), ("--h-max", "inf"),
])
def test_cycles_rejects_invalid_scan_settings(flag, value, capsys):
    argv = ["cycles", "--family", "eq325", "--params", "eps1=1.22e-08,eps2=2.41e-04",
            "--h-min", "0.03", "--h-max", "0.45", "--grid", "16"]
    assert main(argv + [flag, value]) == 1
    assert "error:" in capsys.readouterr().err


def test_jacobian_json_records_are_the_library_result(tmp_path, capsys):
    out = tmp_path / "jacobian.txt"
    assert main(["jacobian", "--family", "eq325", "--out", str(out)]) == 0
    doc = json.loads(out.with_suffix(".json").read_text())
    res = focal_jacobian(lambda e: eq325_field(e[0], e[1]), [0.0, 0.0], (2, 4, 6))
    assert doc["matrix"] == res.matrix.tolist()
    assert doc["singular_values"] == res.singular_values.tolist()
    assert doc["indices"] == list(res.indices)
    assert (doc["rank"], doc["ill_conditioned"]) == (res.rank, res.ill_conditioned)
    assert (doc["rhs_evals"], doc["steps"]) == (res.rhs_evals, res.steps)
    assert doc["integ_tol"] == res.integ_tol == 1e-12  # the default tol, above the floor
    assert doc["wall_s"] > 0 and res.wall_s > 0


def test_jacobian_eq325(capsys):
    assert main(["jacobian", "--family", "eq325"]) == 0
    out = capsys.readouterr().out
    assert "rank        2" in out


def test_jacobian_rejects_an_order_below_the_highest_index(capsys):
    # eq325 differentiates nu_2, nu_4 and nu_6: --order 4 used to run at K = 6
    assert main(["jacobian", "--family", "eq325", "--order", "4"]) == 1
    assert "jet order K=4 is below 6" in capsys.readouterr().err


def test_survey_names_a_parity_failure_on_stderr(capsys, monkeypatch):
    # a solver off by 1e-3 in nu_2 gives a 1:1 field its first nonzero value at
    # the even index 2; the survey exited 2 with nothing on stderr
    quadrature = flow.integrate_jet

    def off(*args, **kwargs):
        jet = quadrature(*args, **kwargs)
        return dataclasses.replace(jet, final=jet.final + np.eye(jet.order)[1] * 1e-3)

    monkeypatch.setattr(flow, "integrate_jet", off)
    assert main(["survey", "--weights", "1:1", "--samples", "3", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert "parity_ok=False" in captured.out
    assert captured.err == "parity failure at weights 1:1\n"


def test_survey_seed_determinism(capsys):
    args = ["survey", "--weights", "2:3", "--samples", "4", "--seed", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


def test_survey_json_records_the_integrator_work(tmp_path, capsys):
    out = tmp_path / "survey.txt"
    assert main(["survey", "--weights", "2:3,2:4", "--samples", "3", "--seed", "9", "--out", str(out)]) == 0
    doc = json.loads(out.with_suffix(".json").read_text())
    for rec, (p, q) in zip(doc["results"], [(2, 3), (2, 4)], strict=True):
        res = parity_survey(p, q, n_samples=3, seed=9)
        assert res.rhs_evals > 0 and res.steps > 0
        # the record is the result object: the sampled (reduced) weights, with weight_gcd
        expect = {**dataclasses.asdict(res), "expected_parity": res.expected_parity}
        expect["first_index_counts"] = {str(k): v for k, v in res.first_index_counts.items()}
        # the wall time is the record's own run
        assert rec.pop("wall_s") > 0 and expect.pop("wall_s") > 0
        assert rec == expect
    assert [doc["results"][1][k] for k in ("p", "q", "weight_gcd")] == [1, 2, 2]
    # a tolerance below the floor is recorded as the floor the solves ran at
    args = ["survey", "--weights", "2:3", "--samples", "2", "--tol", "1e-15", "--out", str(out)]
    assert main(args) == 0
    assert json.loads(out.with_suffix(".json").read_text())["results"][0]["integ_tol"] == 1e-13


@pytest.mark.parametrize("weights", ["0:0", "0:3", "-2:4"])
def test_survey_rejects_nonpositive_weights(weights, capsys):
    assert main(["survey", f"--weights={weights}", "--samples", "2"]) == 1
    assert "weights p, q must be positive integers" in capsys.readouterr().err


@pytest.mark.parametrize("weights", ["2:3:4", "2", "a:b"])
def test_survey_names_a_malformed_weights_entry(weights, capsys):
    # these used to exit with "too many values to unpack (expected 2)", "not
    # enough values to unpack" and "invalid literal for int()"
    assert main(["survey", f"--weights=1:1,{weights}", "--samples", "2"]) == 1
    assert f"malformed --weights entry {weights!r}, expected p:q" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_survey_rejects_nonpositive_samples(samples, capsys):
    # a survey of no fields would print parity_ok=True having checked nothing
    assert main(["survey", "--weights", "2:3", f"--samples={samples}"]) == 1
    assert "at least one sample" in capsys.readouterr().err


def test_params_name_an_entry_whose_value_is_not_a_number(capsys):
    assert main(["analyze", "--family", "eq325", "--params", "eps1=abc"]) == 1
    assert "malformed --params entry 'eps1=abc', expected k=v" in capsys.readouterr().err


def test_params_reject_a_repeated_key(capsys):
    assert main(["analyze", "--family", "eq325", "--params", "eps1=0.1,eps1=0.2"]) == 1
    assert "--params sets 'eps1' twice" in capsys.readouterr().err


def test_missing_input_source_exits_1(capsys):
    assert main(["analyze"]) == 1


@pytest.mark.parametrize("params", ["eps1=0.3", "bogus=1"])
def test_params_need_a_family(params, capsys):
    # the file was analyzed and --params silently dropped, with exit 0
    assert main(["analyze", "--system", str(SAMPLE_SYSTEM), "--params", params]) == 1
    err = capsys.readouterr().err
    assert "--params" in err and "--family" in err and "--system" in err


def test_commands_leave_output_and_exit_status_to_main():
    # one way out: a cmd_* returns its report and failure line, and only main
    # prints them (through _emit and sys.stderr) and names an exit status
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    found = []
    for fn in tree.body:
        if not (isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")):
            continue
        for node in ast.walk(fn):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            if name == "_emit" or name == "stderr" or (name or "").startswith("EXIT_"):
                found.append(f"{fn.name}:{node.lineno} {name}")
    assert [fn.name for fn in tree.body if getattr(fn, "name", "").startswith("cmd_")]
    assert found == []


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--system", "x"],
        ["quad", "--family", "eq325"],
        ["survey", "--params", "eps1=1"],
        ["jacobian", "--system", "x", "--family", "eq325"],
        ["jacobian"],
        ["analyze", "--bogus"],
        ["cycles", "--family", "eq325", "--h-max", "0.45"],
        # these ran on the file and dropped the family, with exit 0
        ["analyze", "--system", str(SAMPLE_SYSTEM), "--family", "eq325"],
        ["cycles", "--system", str(SAMPLE_SYSTEM), "--family", "eq325",
         "--h-min", "0.03", "--h-max", "0.45"],
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    # options a subcommand does not read are refused, not ignored
    assert main(argv) == 1
    assert "error:" in capsys.readouterr().err


def test_help_exits_0(capsys):
    assert main(["cycles", "--help"]) == 0
    assert "--h-min" in capsys.readouterr().out


def test_unknown_family_parameter_exits_1(capsys):
    assert main(["analyze", "--family", "eq325", "--params", "eps=5"]) == 1
    assert "no parameter eps" in capsys.readouterr().err


def test_analyze_eq327_damping_is_a_strong_focus(tmp_path, capsys):
    out = tmp_path / "analyze.txt"
    argv = ["analyze", "--family", "eq327", "--params", "delta0=0.01", "--out", str(out)]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "verdict           strong-focus" in text
    # nu_1(2*pi) = exp(-2*pi*sigma*delta0) with sigma = 0.1
    nu1 = np.exp(-2 * np.pi * 0.1 * 0.01)
    line = next(l for l in text.splitlines() if l.strip().startswith("nu_1 "))
    assert float(line.split("=")[1].split()[0]) == pytest.approx(nu1, rel=1e-12)
    doc = json.loads(out.with_suffix(".json").read_text())
    assert doc["verdict"] == "strong-focus" and doc["first_nonzero_index"] == 1
    assert doc["values"]["1"] == pytest.approx(nu1, rel=1e-12)


def test_jacobian_eq327_accepts_damping(capsys):
    assert main(["jacobian", "--family", "eq327", "--params", "delta0=0.01"]) == 0
    assert "indices     [3, 5, 7]" in capsys.readouterr().out


def test_cycles_eq327_damped_family_scans_in_the_polar_chart(tmp_path, capsys):
    out = tmp_path / "cycles.txt"
    argv = [
        "cycles", "--family", "eq327",
        "--params", "delta0=6.70e-8,delta1=2.462e-4,delta2=2.721e-2",
        "--h-min", "0.01", "--h-max", "0.45", "--grid", "64", "--noise-floor", "1e-11",
        "--out", str(out),
    ]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "backend        polar" in text
    assert "cycles found   3" in text
    doc = json.loads(out.with_suffix(".json").read_text())
    assert doc["backend"] == "polar"
    assert [c["stability"] for c in doc["cycles"]] == ["unstable", "stable", "unstable"]
    closures = [float(l.split("closure")[1]) for l in text.splitlines() if "closure" in l]
    assert len(closures) == 3 and max(closures) <= 1e-8


def test_cycles_on_unnormalized_system(tmp_path, capsys):
    # the criterion-8 field of the eq325 family, written with lambda != (p, q)
    # so that normalizing the file gives back the family field
    field = eq325_field(1.22e-08, 2.41e-04)
    lam1, lam2 = 0.788, 13.92
    sx, sy = (3 / lam2) ** (1 / 6), (2 / lam1) ** (1 / 4)
    lines = [f"p 2\nq 3\nlambda1 {lam1!r}\nlambda2 {lam2!r}"]
    for side, terms, own in (("x", field.x_terms, sx), ("y", field.y_terms, sy)):
        for t in terms:
            c = t.c * own / (sx**t.k * sy**t.j * sx * sy)
            lines.append(f"{side} {t.k} {t.j} {c!r}")
    path = tmp_path / "scaled.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "cycles.txt"
    code = main(
        [
            "cycles", "--system", str(path),
            "--h-min", "0.03", "--h-max", "0.45", "--grid", "48",
            "--noise-floor", "1e-12", "--out", str(out),
        ]
    )
    text = capsys.readouterr().out
    assert code == 0
    assert "cycles found   2" in text
    assert "h* coordinates normalized" in text
    doc = json.loads(out.with_suffix(".json").read_text())
    assert doc["h_star_coordinates"].startswith("normalized")
    assert all(isinstance(c["evals"], int) and c["evals"] > 0 for c in doc["cycles"])
    closures = [float(l.split("closure")[1]) for l in text.splitlines() if "closure" in l]
    assert len(closures) == 2 and max(closures) <= 1e-8


def test_analyze_zero_tolerance_exits_1(system_file, capsys):
    assert main(["analyze", "--system", str(system_file), "--tol", "0"]) == 1
    assert "tolerance must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "quad"])
def test_scheme_disagreement_is_a_reproduction_failure(command, capsys):
    # at tol 1e-3 the trapezoid and Gauss values of I2 differ by about 1e-8
    assert main([command, "--tol", "1e-3"]) == 2


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_quad_nonpositive_tolerance_exits_1(tol, capsys):
    assert main(["quad", "--tol", tol]) == 1
    assert "tolerance must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("zero_tol", ["nan", "inf", "0", "-1"])
def test_analyze_rejects_a_zero_tolerance_not_positive_and_finite(zero_tol, capsys):
    # the sample is a weak focus of order 1; nan and inf printed
    # center-candidate, 0 and -1 strong-focus, all with exit 0
    assert main(["analyze", "--system", str(SAMPLE_SYSTEM), "--zero-tol", zero_tol]) == 1
    assert "zero tolerance must be positive and finite" in capsys.readouterr().err


def test_analyze_rejects_a_non_finite_lambda(tmp_path, capsys):
    # it analyzed as center-candidate: normalize scaled the one term to 0
    path = tmp_path / "infinite.txt"
    path.write_text("p 2\nq 3\nlambda2 inf\ny 1 3 0.3\n", encoding="utf-8")
    assert main(["analyze", "--system", str(path)]) == 1
    assert "lambda1, lambda2 must be finite" in capsys.readouterr().err


def test_analyze_extended_zero_tolerance_exits_1(system_file, capsys):
    # the extended path used to ignore --tol and run its mpmath solve (~30 s)
    argv = ["analyze", "--system", str(system_file), "--precision", "extended", "--order", "3"]
    assert main(argv + ["--tol", "0"]) == 1
    assert "tolerance must be positive" in capsys.readouterr().err


def test_analyze_rq_table_on_unnormalized_system(tmp_path, capsys):
    path = tmp_path / "scaled.txt"
    path.write_text(SYSTEM_31 + "lambda1 0.5\nlambda2 7.0\n", encoding="utf-8")
    table = tmp_path / "rq.csv"
    code = main(["analyze", "--system", str(path), "--rq-table", str(table)])
    assert code == 0
    assert "R/Q table of the normalized field" in capsys.readouterr().out
    rows = np.loadtxt(table, delimiter=",")
    assert rows.shape[0] == 181
    expected = rq_table(PolarRHS(normalize(load_system(path)).field), rows[:, 0])
    assert rows == pytest.approx(expected, rel=1e-15)
