"""The package imports nothing outside the Python standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "painleve4"


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_or_painleve4(path):
    foreign = sorted(
        {name for name in _absolute_imports(path) if name.split(".")[0] not in sys.stdlib_module_names | {"painleve4"}}
    )
    assert foreign == []


def test_guard_sees_every_module():
    assert {"cli.py", "equations.py", "integrator.py", "zeros.py"} <= {p.name for p in PACKAGE.glob("*.py")}
