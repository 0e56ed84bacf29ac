#!/usr/bin/env python3
"""Run the property tests (`@given`) with random seeds and many more examples.

Tier-1 draws derandomized examples (tests/conftest.py), so its verdicts
follow from the commit and a rounding case it never draws stays unseen.
This script looks for those cases, outside CI.  Each property of
tests/test_*.py runs once per seed, with its own max_examples times
--factor, no example database and no deadline.  A failure is printed as a
`FOUND:` line with the seed and the falsifying example, for CHANGES.md; it
changes no check.  The script then prints how often each rule of
`_lands_as_the_reference` (tests/test_zeros.py) decided a root the zero
search refined, summed over the seeds, so that a rule widened later shows
up as a moved count.

Usage, from the root of a checkout:

    python scripts/wide_search.py                       5 random seeds, 10x examples
    python scripts/wide_search.py --seeds 0-9 --factor 1 -k reference_double

It imports the package from ./src and each test module by its path, so it
needs what the tests need (pytest and hypothesis) and nothing else.  The
fixtures it provides are `tmp_path` (one directory per property and seed)
and `capsys`; a property that asks for another is reported as skipped.
Exit code 1 when any property failed.
"""

import argparse
import contextlib
import importlib.util
import inspect
import io
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from hypothesis import HealthCheck, seed, settings

ROOT = Path(__file__).resolve().parent.parent


class _Capsys:
    """What the properties read of pytest's `capsys`: `readouterr()` of the output since the last read."""

    def __init__(self):
        self.out, self.err = io.StringIO(), io.StringIO()

    def readouterr(self):
        captured = SimpleNamespace(out=self.out.getvalue(), err=self.err.getvalue())
        for stream in (self.out, self.err):
            stream.seek(0)
            stream.truncate()
        return captured


def _properties(keyword: str):
    """(id, module, test, owner class or None) of every `@given` test whose id contains keyword."""
    for path in sorted((ROOT / "tests").glob("test_*.py")):
        spec = importlib.util.spec_from_file_location(path.stem, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        found = [(name, obj, None) for name, obj in vars(module).items() if name.startswith("test")]
        for name, cls in vars(module).items():
            if name.startswith("Test") and inspect.isclass(cls):
                found += [(f"{name}::{m}", obj, cls) for m, obj in vars(cls).items() if m.startswith("test")]
        for name, test, owner in found:
            test_id = f"tests/{path.name}::{name}"
            if hasattr(test, "hypothesis") and keyword in test_id:
                yield test_id, module, test, owner


def _run(test, owner, run_seed: int, factor: float):
    """Run one property at one seed; the exception it raised, or None.  Raises LookupError for a missing fixture.

    owner is the instance a method runs on, the same one at every seed, as hypothesis requires.
    """
    own = test._hypothesis_internal_use_settings  # what @settings set on the test, or the default
    wide = settings(
        own,
        max_examples=max(1, round(own.max_examples * factor)),
        derandomize=False,
        database=None,
        deadline=None,
        suppress_health_check=[*own.suppress_health_check, HealthCheck.too_slow],
    )
    # @settings may be applied once: the wide settings replace the test's own as @settings would set them
    test._hypothesis_internal_use_settings = wide
    seed(run_seed)(test)
    names = [p for p in inspect.signature(test).parameters if p != "self"]
    with tempfile.TemporaryDirectory() as tmp, contextlib.ExitStack() as stack:
        capsys = _Capsys()
        fixtures = {"tmp_path": Path(tmp), "capsys": capsys}
        missing = [n for n in names if n not in fixtures]
        if missing:
            raise LookupError(", ".join(missing))
        if "capsys" in names:
            stack.enter_context(contextlib.redirect_stdout(capsys.out))
            stack.enter_context(contextlib.redirect_stderr(capsys.err))
        try:
            test(*([] if owner is None else [owner]), **{n: fixtures[n] for n in names})
        except Exception as error:  # noqa: BLE001  (every failure is reported, none stops the search)
            return error
        finally:
            test._hypothesis_internal_use_settings = own
    return None


def _seeds(text: str | None, rounds: int) -> list[int]:
    if text is None:
        return [random.SystemRandom().randrange(2**32) for _ in range(rounds)]
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", help="fixed seeds, such as 0-9 or 3,7 (default: --rounds random seeds)")
    ap.add_argument("--rounds", type=int, default=5, help="random seeds to run when --seeds is not given")
    ap.add_argument("--factor", type=float, default=10.0, help="multiple of each property's own max_examples")
    ap.add_argument("-k", dest="keyword", default="", help="run only properties whose id contains this text")
    ns = ap.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    branches = Counter()
    failures = 0
    for test_id, module, test, cls in _properties(ns.keyword):
        owner = None if cls is None else cls()
        # each module is loaded afresh by _properties, so its rule is wrapped once
        rule = getattr(module, "_reference_branch", None)
        if rule is not None and not hasattr(rule, "counted"):
            def counting(c, rule=rule):
                branch = rule(c)
                branches[branch] += 1
                return branch

            counting.counted = True
            module._reference_branch = counting
        for run_seed in _seeds(ns.seeds, ns.rounds):
            try:
                error = _run(test, owner, run_seed, ns.factor)
            except LookupError as missing:
                print(f"skipped {test_id}: needs the pytest fixture {missing}")
                break
            if error is None:
                print(f"passed  {test_id} seed {run_seed}")
                continue
            failures += 1
            message = " ".join(f"{type(error).__name__}: {error}".split())[:500]
            example = " ".join(" ".join(getattr(error, "__notes__", ())).split())
            print(f"FOUND: {test_id} fails at hypothesis seed {run_seed} (scripts/wide_search.py, "
                  f"factor {ns.factor:g}): {message}. {example}")  # fmt: skip
    if branches:
        total = sum(branches.values())
        print(f"_lands_as_the_reference over {total} refined roots: "
              + ", ".join(f"{name} {branches[name]}" for name in ("same double", "sign flips", "two roots", "miss")))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
