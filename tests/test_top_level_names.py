"""Every top-level name the package defines has a reader.

A name is read where it is loaded (`x`, `module.x`) or imported by name
(`from .module import x`).  A definition that only tests read is dead code
in the package, and belongs in the tests that read it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "painleve4"


def _trees(directory: Path) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(directory.glob("*.py"))}


def _defined(tree: ast.Module) -> set[str]:
    """Names bound by the module's own top-level statements; imports excluded."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                names |= {n.id for n in ast.walk(target) if isinstance(n, ast.Name)}
    return {name for name in names if not (name.startswith("__") and name.endswith("__"))}


def _read(trees) -> set[str]:
    """Names loaded or imported by name anywhere in the trees."""
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names |= {alias.name for alias in node.names}
    return names


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_top_level_name_is_read_in_the_package_or_by_perfbench():
    src = _trees(PACKAGE)
    exported = set().union(*map(_exported, src.values()))
    read_in_src = _read(src.values())
    read_by_perfbench = _read(_trees(ROOT / "perfbench").values())
    unread = [
        f"{path.name}: {name}"
        for path, tree in src.items()
        for name in sorted(_defined(tree))
        if name not in exported | read_in_src | read_by_perfbench
    ]
    assert not unread, unread
