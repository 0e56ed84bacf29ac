"""The package's record forms: every record is a named tuple, the four that
check their fields do so in `__new__` of a named-tuple subclass with
`__slots__ = ()`, no module imports `dataclasses`, and no field repeats
another value.
"""

import ast
import copy
import dataclasses
import importlib
import inspect
import math
import os
import pickle
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import painleve4
from painleve4.cli import SweepCell
from painleve4.equations import EquationKind, Jet3, KindRow, Params
from painleve4.integrator import InitialData, Tolerances, integrate
from painleve4.oracles import QuadraticSolution, SqrtLiftResult, SqrtSample, XXIXIntegrals
from painleve4.verify import PropertyResult
from painleve4.zeros import CurvatureReport, ZeroBranch, ZeroEvent

PACKAGE = Path(painleve4.__file__).parent

#: the records that check outside input in `__new__`; every other record is a plain named tuple
VALIDATED = {"Params", "Jet3", "Tolerances", "InitialData"}

_EVENT = ZeroEvent(0.5, 1.0, -2.0, ZeroBranch.PLUS_BETA, True)
_SAMPLE = SqrtSample(0.0, 0.5, 1.0)
#: one instance of each record: those that only hold values, then the four that validate and a trajectory
RECORDS = [
    _EVENT,
    CurvatureReport((_EVENT,)),
    QuadraticSolution(1.0, 0.0, -0.25, EquationKind.XXXII),
    XXIXIntegrals(1.0, 2.0, 0.0),
    _SAMPLE,
    SqrtLiftResult((_SAMPLE,), 0.0, 1e-9),
    PropertyResult("p", 1e-13, 1e-12, "note"),
    SweepCell(-2.0, 0.4, "pole", 22, -0.25, 1e-12, (_EVENT,)),
    Params(1.0, -0.5),
    Jet3(0.5, -1.25, 3.0, 1e-300),
    Tolerances(rel=1e-12),
    InitialData.zero(0.0, -1, 0.5),
    integrate(EquationKind.XVII, Params(), InitialData.nonzero(0.0, 1.0, -2.0), 1.5),
]


def _package_classes() -> dict[str, type]:
    classes = {}
    for info in pkgutil.iter_modules([str(PACKAGE)]):
        module = importlib.import_module(f"painleve4.{info.name}")
        for name, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ == module.__name__:
                classes[name] = cls
    return classes


def test_every_record_is_a_named_tuple_and_four_validate_in_new():
    classes = _package_classes()
    assert not any(dataclasses.is_dataclass(cls) for cls in classes.values())
    records = {name: cls for name, cls in classes.items() if issubclass(cls, tuple)}
    # a named tuple's only base is tuple; a validated record subclasses one and adds __new__
    assert all(hasattr(cls, "_fields") and "__slots__" in vars(cls) for cls in records.values())
    assert {name for name, cls in records.items() if cls.__bases__ != (tuple,)} == VALIDATED
    assert all("__new__" in vars(records[name]) and vars(records[name])["__slots__"] == () for name in VALIDATED)


@pytest.mark.parametrize("module", ["__init__", "cli", "equations", "errors", "integrator", "oracles", "verify", "zeros"])
def test_module_does_not_import_dataclasses(module):
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert "dataclasses" not in imported


def test_importing_the_cli_loads_no_dataclasses_inspect_or_ast():
    # a fresh interpreter: this process has loaded all three for the tests
    script = "import sys; before = set(sys.modules); import painleve4.cli; print(sorted(set(sys.modules) - before))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(ast.literal_eval(proc.stdout))
    assert "painleve4.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "ast"}


def test_replace_and_make_validate_as_the_constructor_does():
    with pytest.raises(ValueError, match="^alpha: must be finite"):
        Params()._replace(alpha=math.inf)
    with pytest.raises(ValueError, match="^w1: must be finite"):
        Jet3._make([0.0, 1.0, math.nan, 0.0])
    with pytest.raises(ValueError, match="^rel: "):
        Tolerances()._replace(rel=0.0)
    with pytest.raises(painleve4.InvalidInitialData, match="^branch: "):
        InitialData.zero(0.0, 1, 0.0)._replace(branch=0)


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

    def test_pickle_and_deepcopy_keep_type_and_value(self, record):
        copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in [*copies, copy.deepcopy(record), copy.copy(record)]:
            assert type(twin) is type(record) and twin == record

    def test_repr_and_hash_are_the_frozen_dataclass_ones(self, record):
        cls = type(record)
        frozen = dataclasses.make_dataclass(cls.__name__, record._fields, frozen=True)(*record)
        assert repr(record) == repr(frozen)
        assert hash(record) == hash(frozen)


def test_no_field_repeats_another_value():
    assert "passed" not in PropertyResult._fields
    assert "zero_count" not in SweepCell._fields
    assert "interval" not in SqrtLiftResult._fields
    # which entries are given decides the kind of initial data, and squared decides whether the completed w'' divides by w
    assert "mode" not in InitialData._fields
    assert "divides" not in KindRow._fields


@pytest.mark.parametrize(
    "worst,passed", [(0.5, True), (1.0, False), (2.0, False), (math.nan, False), (math.inf, False)]
)
def test_passed_is_worst_below_budget(worst, passed):
    result = PropertyResult("p", worst, 1.0)
    assert result.passed is passed
    assert result.line().startswith("p: PASS" if passed else "p: FAIL")
