"""The package's record forms: named tuples for records that only hold values,
frozen dataclasses for the five that validate their fields or are read on a
hot path, and no field that repeats another value.
"""

import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
from pathlib import Path

import pytest

import painleve4
from painleve4.cli import SweepCell
from painleve4.equations import EquationKind
from painleve4.oracles import QuadraticSolution, SqrtLiftResult, SqrtSample, XXIXIntegrals
from painleve4.verify import PropertyResult
from painleve4.zeros import CurvatureReport, ZeroBranch, ZeroEvent

PACKAGE = Path(painleve4.__file__).parent

#: the records that check outside input in __post_init__ (Params, Jet3,
#: Tolerances, InitialData) or are read on every dense_eval call (Trajectory)
DATACLASSES = {"Params", "Jet3", "Tolerances", "InitialData", "Trajectory"}

_EVENT = ZeroEvent(0.5, 1.0, -2.0, ZeroBranch.PLUS_BETA, True)
_SAMPLE = SqrtSample(0.0, 0.5, 1.0)
#: one instance of each value record
RECORDS = [
    _EVENT,
    CurvatureReport((_EVENT,)),
    QuadraticSolution(1.0, 0.0, -0.25, EquationKind.XXXII),
    XXIXIntegrals(1.0, 2.0, 0.0),
    _SAMPLE,
    SqrtLiftResult((_SAMPLE,), 0.0, 1e-9),
    PropertyResult("p", 1e-13, 1e-12, "note"),
    SweepCell(-2.0, 0.4, "pole", 22, -0.25, 1e-12, (_EVENT,)),
]


def _package_classes() -> dict[str, type]:
    classes = {}
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        module = importlib.import_module(f"painleve4.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                classes[name] = cls
    return classes


def test_exactly_five_dataclasses():
    classes = _package_classes()
    assert {name for name, cls in classes.items() if dataclasses.is_dataclass(cls)} == DATACLASSES


@pytest.mark.parametrize("module", ["zeros", "oracles", "verify", "cli"])
def test_module_does_not_import_dataclasses(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "dataclasses" not in imported


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
class TestValueRecord:
    def test_is_a_named_tuple(self, record):
        assert isinstance(record, tuple) and not dataclasses.is_dataclass(record)
        assert tuple(record) == tuple(getattr(record, name) for name in record._fields)

    def test_equal_values_compare_and_hash_equal(self, record):
        twin = type(record)(*record)
        assert twin is not record and twin == record and hash(twin) == hash(record)

    def test_assignment_raises(self, record):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)

    def test_repr_and_hash_are_the_frozen_dataclass_ones(self, record):
        cls = type(record)
        frozen = dataclasses.make_dataclass(cls.__name__, record._fields, frozen=True)(*record)
        assert repr(record) == repr(frozen)
        assert hash(record) == hash(frozen)


def test_no_field_repeats_another_value():
    assert "passed" not in PropertyResult._fields
    assert "zero_count" not in SweepCell._fields
    assert "interval" not in SqrtLiftResult._fields


@pytest.mark.parametrize(
    "worst,passed", [(0.5, True), (1.0, False), (2.0, False), (math.nan, False), (math.inf, False)]
)
def test_passed_is_worst_below_budget(worst, passed):
    result = PropertyResult("p", worst, 1.0)
    assert result.passed is passed
    assert result.line().startswith("p: PASS" if passed else "p: FAIL")
