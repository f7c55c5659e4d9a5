"""The package top level exports exactly the names the demos import from it."""
import ast
from pathlib import Path

import qhfocus

DEMOS = Path(__file__).resolve().parent.parent / "demos"


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
