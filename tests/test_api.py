"""The demos: the package top level exports exactly the names they import
from it, and each runs to the end.  The package's sources: no
scipy import, and no public function or class that only the tests call.
The benchmark's tracer: every function it wraps by name exists."""
import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qhfocus
from qhfocus.casestudy import eq325_field

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


def demo_imports() -> set[str]:
    names = set()
    for path in DEMOS.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "qhfocus" and not node.level:
                names.update(alias.name for alias in node.names)
    return names


def test_top_level_exports_are_the_demo_imports():
    assert sorted(qhfocus.__all__) == sorted(demo_imports())
    assert all(hasattr(qhfocus, name) for name in qhfocus.__all__)


# 02 and 05 are the only end-to-end runs of the polar scans, as a script
# under warnings as errors
@pytest.mark.parametrize("name", sorted(path.name for path in DEMOS.glob("*.py")))
def test_demo_runs(name):
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(DEMOS / name)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


IMPORT_PATH = """
import sys

import numpy as np

from qhfocus import Monomial, WeightedField, find_cycles, focal_values, return_map
from qhfocus.casestudy import compute_reference_constants, eq325_field
from qhfocus.cycles import closure_error
from qhfocus.polar import PolarRHS
from qhfocus.quadrature import PanelAntiderivative


def assert_unloaded(what):
    loaded = [name for name in ("scipy.integrate", "scipy.optimize") if name in sys.modules]
    assert not loaded, f"{what} imported {loaded}"


focal_values(eq325_field(0.01, 0.0))
focal_values(eq325_field(0.01, 0.0), precision="extended", dps=20)
# the reference integrals of verify and quad, whose Gauss side nests a panel antiderivative
assert abs(PanelAntiderivative(np.cos)(np.pi)) <= 1e-12
compute_reference_constants()
assert_unloaded("focal values or reference integrals")

# the cycle scans: a polar grid in lanes on panels, Brent refinement and section events
hopf = WeightedField(  # a stable cycle at h = 0.2
    p=1, q=1,
    x_terms=(Monomial(1, 0, 0.04), Monomial(3, 0, -1.0), Monomial(1, 2, -1.0)),
    y_terms=(Monomial(0, 1, 0.04), Monomial(2, 1, -1.0), Monomial(0, 3, -1.0)),
)
for backend in ("polar", "cartesian"):
    (cycle,) = find_cycles(backend, hopf, 0.02, 0.9, grid_n=24, tol=1e-12).cycles
    assert abs(cycle.h_star - 0.2) <= 1e-6, (backend, cycle)
    assert closure_error(hopf, cycle.h_star, tol=1e-12) <= 1e-8
radii = np.geomspace(0.05, 0.5, 16)
assert np.all(np.diff(np.sign(return_map(PolarRHS(hopf), radii) - radii)) <= 0)
assert_unloaded("cycle scans, closures or an array return map")

# scipy's package, imported after the package loaded its Brent routine by
# path, shares that one extension module, initialized once
import scipy.optimize

from qhfocus import dop853

f = lambda x: x**3 - x - 1
assert scipy.optimize.brentq(f, 1.0, 2.0, xtol=1e-12) == dop853.brentq(f, 1.0, 2.0, 1e-12)
assert sys.modules["scipy.optimize._zeros"] is dop853._from_scipy("optimize/_zeros")
"""


def test_focal_values_leave_scipy_integrate_and_optimize_unimported():
    # the package reads two files from scipy, DOP853's tableau and the
    # compiled Brent routine: no path loads scipy's integrate or optimize packages
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-c", IMPORT_PATH],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_no_module_of_the_package_imports_scipy():
    # the two files read from scipy are loaded by path (``dop853._from_scipy``);
    # parsed, not run, so that branches the tests rarely reach are covered too
    found = []
    for path in sorted((ROOT / "src" / "qhfocus").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            names = [a.name for a in node.names] if isinstance(node, ast.Import) else []
            if isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name == "scipy" or name.startswith("scipy.")]
    assert not found


def test_every_public_function_and_class_has_a_caller_outside_the_tests():
    # no public API that only tests call: each public module-level function
    # or class of the package is referenced (by a name, an attribute or an
    # import) in the package, the demos or the benchmark; parsed, not run
    package = sorted((ROOT / "src" / "qhfocus").rglob("*.py"))
    public, referenced = [], set()
    for path in [*package, *sorted(DEMOS.glob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path in package:
            public += [(path.stem, node.name) for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                referenced.update(alias.name for alias in node.names)
    assert [f"{module}.{name}" for module, name in public if name not in referenced] == []


def test_the_benchmark_tracer_installs_on_the_package():
    # bench/tracing.py wraps functions of the package by name, so deleting or
    # renaming one breaks ``bench/run.py --trace 1``; a traced focal analysis
    # counts its jet solve in the integrate_jet span, and leaving restores it
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # Each traced name must be the package object's own attribute: getattr on
    # a class also finds a base's, and a deleted PolarRHS.__call__ would wrap
    # type.__call__, whose restoring makes every instance call the constructor
    targets = [(owner, attr) for _, owners, attr in tracing.SPANS for owner in owners]
    targets += [(owner, attr) for _, owner, attr in tracing.LEAVES]
    assert [f"{owner.__name__}.{attr}" for owner, attr in targets if attr not in vars(owner)] == []
    originals = [vars(owner)[attr] for owner, attr in targets]
    tracer = tracing.Tracer()
    with tracer.install(), tracer.traced_pass(0):
        qhfocus.focal_values(eq325_field(0.01, 0.0))
    assert all(vars(owner)[attr] is original
               for (owner, attr), original in zip(targets, originals))
    assert tracer.calls["flow.integrate_jet"] == 1
    assert tracer.counters["flow.integrate_jet.rhs_evals"] > 0
