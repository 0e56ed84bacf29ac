"""The benchmark's tracer patches package attributes by name; they must all exist.

`perfbench/tracing.py` wraps module attributes such as `integrator.rhs3` and
`cli.dense_eval` at call time.  Deleting or renaming one of them would only
surface in a traced benchmark run, so this test builds the full
instrumentation list against the package and checks every target.
"""

import importlib.util
from pathlib import Path

import painleve4
import painleve4.cli  # noqa: F401 -- the tracer reaches cli through the package

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_exists():
    tracing = _load_tracing()
    triples = tracing.instrumentation(tracing.Tracer(None), painleve4)
    missing = [f"{m.__name__}.{name}" for m, name, _ in triples if not hasattr(m, name)]
    assert not missing
    originals = [getattr(m, name) for m, name, _ in triples]
    with tracing.patched(triples):
        pass
    assert [getattr(m, name) for m, name, _ in triples] == originals
