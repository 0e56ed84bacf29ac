"""Every fact about an equation kind is read from its row of `equations.KINDS`.

Code that compares a kind against `EquationKind` members states a kind's
facts a second time, away from its row, so that adding or checking a kind
means reading every module.  These tests fail on any such comparison in
`src/painleve4`: an `EquationKind.<member>` operand, a tuple, list or set of
them, or a name bound to one.  Passing a kind as data, such as the kind of
a `verify` draw, is not a comparison.
"""

import ast
from pathlib import Path

from painleve4 import equations, integrator
from painleve4.equations import EquationKind, Params


def _is_member(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "EquationKind"
        and node.attr in EquationKind.__members__
    )


def _is_kind(node: ast.AST, bound: set[str]) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(_is_kind(elt, bound) for elt in node.elts)
    return _is_member(node) or (isinstance(node, ast.Name) and node.id in bound)


def kind_comparisons(tree: ast.Module) -> list[int]:
    """Line numbers of the comparisons in the tree that have a kind member, or a collection or name of them, as an operand."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None and _is_kind(node.value, set()):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {t.id for t in targets if isinstance(t, ast.Name)}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Compare) and any(_is_kind(x, bound) for x in [node.left, *node.comparators])
    ]


def test_the_guard_finds_each_form_of_kind_comparison():
    source = """
QUADRATIC = (EquationKind.XVII, EquationKind.XXXII)
a = kind is EquationKind.PIV
b = kind in (EquationKind.PIV, EquationKind.PIV0)
c = kind not in QUADRATIC
d = EquationKind.SQRT_PIV0 == kind
e = integrate(EquationKind.XXIX, p, init, 1.0)
f = field is ScalarField.REAL
g = EquationKind(name) is kind
"""
    assert kind_comparisons(ast.parse(source)) == [3, 4, 5, 6]


def test_no_module_compares_against_kind_members():
    package = Path(equations.__file__).parent
    hits = [
        f"{path.name}:{line}"
        for path in sorted(package.glob("*.py"))
        for line in kind_comparisons(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not hits, f"{len(hits)} comparisons against EquationKind members: {hits}"


def test_every_kind_has_one_row():
    assert list(equations.KINDS) == list(EquationKind)


def test_a_row_states_its_equation_once_as_res2(monkeypatch):
    # w'' (`_rhs2_scalar`), the zero slope and whether res2 is piv's C are read off res2, not set beside it
    assert equations.KindRow._fields == ("series", "res2", "params", "pole", "squared")
    rows = equations.KINDS.items()
    assert [kind for kind, row in rows if row.res2_is_c] == [EquationKind.PIV, EquationKind.PIV0]
    # the tracer wraps integrator.constraint_c; the rows compare with the equations module's own
    monkeypatch.setattr(integrator, "constraint_c", lambda p, j: equations.constraint_c(p, j))
    assert equations.KINDS[EquationKind.PIV].res2_is_c
    # k + beta^2: beta^2 where res2 is C, 1 on xxxii, 0 on xvii, xxix and sqrt-piv0
    slopes = {kind.value: row.zero_slope2(Params(0.0, 1.5) if row.params else Params()) for kind, row in rows}
    assert slopes == {"piv": 2.25, "piv0": 0.0, "xvii": 0.0, "xxix": 0.0, "xxxii": 1.0, "sqrt-piv0": 0.0}
