import dataclasses
import json

import numpy as np
import pytest

from qhfocus.casestudy import b_integrand_factory, eq325_field, f2_integrand, nested_f2
from qhfocus.cli import main
from qhfocus.cycles import find_cycles
from qhfocus.fields import load_system, normalize
from qhfocus.focal import focal_jacobian, focal_values
from qhfocus.polar import PolarRHS, rq_table
from qhfocus.quadrature import OdeAntiderivative, gauss_panels, trapezoid_periodic

SYSTEM_31 = """\
# 2:3 weighted system
p 2
q 3
x 5 0 1.0
y 4 1 1.0
"""


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
    assert diag == {"rhs_evals": report.rhs_evals, "steps": report.steps}
    # DOP853 makes 12 right-hand-side evaluations per step
    assert diag["rhs_evals"] >= 12 * diag["steps"] > 0


def test_analyze_json_records_extended_integrator_work(system_file, tmp_path, capsys):
    out = tmp_path / "report.txt"
    argv = ["analyze", "--system", str(system_file), "--precision", "extended", "--order", "3"]
    assert main(argv + ["--out", str(out)]) == 0
    diag = json.loads(out.with_suffix(".json").read_text())["diagnostics"]
    report = focal_values(load_system(system_file), K=3, precision="extended")
    assert diag == {"rhs_evals": report.rhs_evals, "steps": report.steps}
    # M = ceil(-ln(1e-30) / 2 + 1) = 36 Taylor coefficients per step at dps 30
    assert diag["rhs_evals"] == 36 * diag["steps"] > 0


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


def test_quad_schemes_agree(capsys):
    assert main(["quad"]) == 0
    out = capsys.readouterr().out
    for name in ("I2", "I4", "IA", "IB"):
        assert name in out


def test_quad_ib_schemes_share_no_backend(tmp_path, capsys):
    # IB nests f2: the trapezoid side takes it from the Fourier antiderivative,
    # the Gauss side from the ODE antiderivative
    out = tmp_path / "quad.txt"
    assert main(["quad", "--out", str(out)]) == 0
    ib = json.loads(out.with_suffix(".json").read_text())["integrals"]["IB"]
    f2_ode = OdeAntiderivative(lambda t: float(f2_integrand(t)))
    assert ib["gauss"] == gauss_panels(b_integrand_factory(f2_ode), tol=1e-12).value
    assert ib["trapezoid"] == trapezoid_periodic(b_integrand_factory(nested_f2), tol=1e-12).value


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


def test_jacobian_json_records_are_the_library_result(tmp_path, capsys):
    out = tmp_path / "jacobian.txt"
    assert main(["jacobian", "--family", "eq325", "--out", str(out)]) == 0
    doc = json.loads(out.with_suffix(".json").read_text())
    res = focal_jacobian(lambda e: eq325_field(e[0], e[1]), [0.0, 0.0], (2, 4, 6))
    assert doc["matrix"] == res.matrix.tolist()
    assert doc["singular_values"] == res.singular_values.tolist()
    assert doc["indices"] == list(res.indices)
    assert (doc["rank"], doc["ill_conditioned"]) == (res.rank, res.ill_conditioned)


def test_jacobian_eq325(capsys):
    assert main(["jacobian", "--family", "eq325"]) == 0
    out = capsys.readouterr().out
    assert "rank        2" in out


def test_survey_seed_determinism(capsys):
    args = ["survey", "--weights", "2:3", "--samples", "4", "--seed", "9"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("weights", ["0:0", "0:3", "-2:4"])
def test_survey_rejects_nonpositive_weights(weights, capsys):
    assert main(["survey", f"--weights={weights}", "--samples", "2"]) == 1
    assert "weights p, q must be positive integers" in capsys.readouterr().err


def test_missing_input_source_exits_1(capsys):
    assert main(["analyze"]) == 1


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
