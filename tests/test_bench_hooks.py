"""The benchmark's tracer patches package attributes by name; they must all exist.

`perfbench/tracing.py` wraps module attributes such as `integrator.rhs3` and
`cli.dense_eval` at call time, and reads fields of their results.  Deleting
or renaming one of them would only surface in a traced benchmark run, so
these tests build the full instrumentation list against the package, check
every target, and run one traced `zeros` command through it.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

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


def test_traced_zeros_run_fills_the_counters_the_benchmark_reads(tmp_path):
    # the tracer reads results by attribute (`len(report.violations)`,
    # `traj.nodes`), so a renamed field breaks a traced run, not this import
    tracing = _load_tracing()
    tracer = tracing.Tracer(SimpleNamespace(probe_total=0.0))
    argv = ["zeros", "--eq", "piv0", "--w2", "1", "--span", "1",
            "--out", str(tmp_path / "e.json"), "--summary", str(tmp_path / "s.json")]
    with tracing.patched(tracing.instrumentation(tracer, painleve4)):
        assert painleve4.cli.main(argv) == 0
    assert tracer.counts["integrate.nodes"] > 0
    assert "curvature_violations" in tracer.counts and tracer.counts["curvature_violations"] == 0
    assert tracer.spans["zeros.check_curvature_theorem"][0] == 1
