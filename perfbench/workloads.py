"""The three benchmark workloads: inputs from a seed, timed passes, output checks.

Every workload is single-process and single-threaded, and runs closed
loop: a pass starts when the previous one has finished.  A pass is the unit
that `wall_s` times; `run_pass` returns its duration and keeps whatever the
checks after the loop need.  Accuracy figures are computed outside the
timed region: work a capture shim does during pass 0 is timed separately
and subtracted from that pass.
"""

import cmath
import contextlib
import csv
import hashlib
import importlib
import io
import logging
import math
import random
import re
import shutil
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from tracing import patched

MODULES = ("equations", "integrator", "zeros", "oracles", "verify", "cli")


def load_package(src: Path) -> SimpleNamespace:
    """Import painleve4 afresh from `src`, so that each set-up pays the import."""
    for name in [m for m in sys.modules if m == "painleve4" or m.startswith("painleve4.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    pkg = importlib.import_module("painleve4")
    if Path(pkg.__file__).resolve().parent != (src / "painleve4").resolve():
        raise ImportError(f"painleve4 resolved to {pkg.__file__}, not to {src}")
    return SimpleNamespace(**{m: importlib.import_module("painleve4." + m) for m in MODULES})


def scaled_c_drift(traj) -> float:
    """max over nodes of |C - C0| / (1 + sum of |terms of C|); piv and piv0 only.

    Near a pole the terms of C grow like |w|^4 and cancel, so the raw drift
    is rounding noise of that size; scaling by the terms makes it comparable
    across regimes.
    """
    alpha, beta = traj.params.alpha, traj.params.beta
    c0 = traj.nodes[0].c
    worst = 0.0
    for node in traj.nodes:
        j = node.jet
        aw = abs(j.w)
        terms = (
            abs(2.0 * j.w * j.w2)
            + abs(j.w1) ** 2
            + 3.0 * aw ** 4
            + 8.0 * abs(j.z) * aw ** 3
            + 4.0 * abs(j.z * j.z - alpha) * aw ** 2
            + beta * beta
        )
        worst = max(worst, abs(node.c - c0) / (1.0 + terms))
    return worst


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


class Workload:
    """Shared bookkeeping: pass durations, operation counts, checks and the capture shim."""

    name = ""
    setup_reps = 5
    #: passes run even past --seconds, so that the median has enough samples
    min_passes = 1
    #: the untimed loop stops only after a whole number of rounds of this many passes
    round_passes = 1
    #: traced pairs to run, when their number must not depend on speed (None: until --seconds)
    trace_pairs = None

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.out = root / ".bench_out" / self.name
        self.attempted = 0
        self.failed = 0
        self.problems = Counter()
        self.checks: list[Check] = []
        self.accuracy: dict[str, float] = {}
        self.layer_extras: dict[str, float] = {}
        self._drift = 0.0
        self._excluded = 0.0
        if self.out.exists():
            shutil.rmtree(self.out)
        self.out.mkdir(parents=True)

    def setup(self) -> None:
        self.pkg = load_package(self.root / "src")

    def _drift_capture(self, fn):
        """Wrap an integrate reference so that piv trajectories feed the C-drift figure, untimed."""

        def capture(kind, *args, **kwargs):
            traj = fn(kind, *args, **kwargs)
            t0 = perf_counter()
            if kind.value in ("piv", "piv0"):
                self._drift = max(self._drift, scaled_c_drift(traj))
            self._excluded += perf_counter() - t0
            return traj

        return capture

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append(Check(name, ok, detail))

    def operation(self, problems: dict, where: str) -> None:
        """Count one operation, failed if any problem kind holds."""
        self.attempted += 1
        found = [kind for kind, bad in problems.items() if bad]
        if found:
            self.failed += 1
            self.problems.update(found)
            print(f"{where}: " + ", ".join(found), file=sys.stderr)

    def baseline_counts(self, pass_counts: dict) -> list[str]:
        return []


# --------------------------------------------------------------------- sweep


class Sweep(Workload):
    """The README 11 x 11 piv sweep through `cli.main`, one full grid per pass."""

    name = "sweep"
    min_passes = 3

    def __init__(self, root, seed):
        super().__init__(root, seed)
        jet = ["--w0", "0.5"]
        if seed != 0:
            rng = random.Random(seed)
            jet = ["--w0", repr(0.5 + rng.uniform(-0.01, 0.01)), "--w1", repr(rng.uniform(-0.01, 0.01))]
        self.argv = [
            "sweep", "--eq", "piv",
            "--alpha-min", "-2", "--alpha-max", "2", "--alpha-steps", "11",
            "--beta-min", "-2", "--beta-max", "2", "--beta-steps", "11",
            "--z0", "-1", *jet, "--span", "2",
        ]  # fmt: skip
        self.first_csv = None
        self.rows: list[dict] = []
        self.cells = None

    def setup(self):
        super().setup()
        self.csv_path = self.out / "sweep.csv"
        self.argv_full = self.argv + ["--out", str(self.csv_path)]
        self.pkg.cli.build_parser().parse_args(self.argv_full)

    def run_pass(self, i: int, capture: bool, clock) -> tuple[float, float]:
        cli = self.pkg.cli
        replacements = []
        if capture:
            run_sweep = cli.run_sweep

            def capture_cells(*args, **kwargs):
                self.cells = run_sweep(*args, **kwargs)
                return self.cells

            replacements = [(cli, "integrate", self._drift_capture(cli.integrate)), (cli, "run_sweep", capture_cells)]
        self._excluded = 0.0
        with patched(replacements), contextlib.redirect_stdout(io.StringIO()):
            rc, raw, factor = clock.measure(cli.main, self.argv_full)
        dt = raw - self._excluded
        data = self.csv_path.read_bytes()
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        if self.first_csv is None:
            self.first_csv, self.rows = data, rows
        bad = [r for r in rows if r["status"] not in ("completed", "pole") or r["error"]]
        self.operation(
            {"exit": rc != 0, "cells": len(rows) != 121 or bool(bad), "determinism": data != self.first_csv},
            f"sweep pass {i}",
        )
        return dt, dt * factor

    def finish(self):
        nodes = sum(int(r["node_count"]) for r in self.rows)
        pole_rows = [r for r in self.rows if r["status"] == "pole"]
        pole_nodes = sum(int(r["node_count"]) for r in pole_rows)
        counts = {"nodes": nodes, "pole_cells": len(pole_rows), "pole_nodes": pole_nodes}
        slope_err = 0.0
        for cell in self.cells or ():
            for e in cell.events:
                if e.branch.value != "unresolved":
                    slope_err = max(slope_err, min(abs(e.slope - cell.beta), abs(e.slope + cell.beta)))
        self.accuracy = {"c_drift_scaled": self._drift, "zero_slope_err": slope_err}
        self.check("every pass exits 0", not self.problems["exit"])
        self.check("all 121 cells end completed or pole, with an empty error", not self.problems["cells"])
        self.check("passes on one seed write byte-identical sweep CSVs", not self.problems["determinism"])
        self.check("scaled C drift below 1e-8", 0.0 < self._drift < 1e-8, f"{self._drift:.3e}")
        self.check("resolved zero slopes within 5e-9 of +-beta", slope_err < 5e-9, f"{slope_err:.3e}")
        expected = {"nodes": 111866, "pole_cells": 52, "pole_nodes": 99222}
        lines = [f"sweep counts: {nodes} nodes; {len(pole_rows)} pole cells hold {pole_nodes} of them"]
        if self.seed == 0:
            diffs = [f"{k} {counts[k]} vs {v}" for k, v in expected.items() if counts[k] != v]
            lines.append("ROADMAP baseline (111866 nodes, 52 pole cells, 99222 pole nodes): "
                         + ("match" if not diffs else "differs: " + ", ".join(diffs)))
        return lines


# -------------------------------------------------------------------- verify

_RESULT = re.compile(r"^(?P<name>.*): (?P<verdict>PASS|FAIL) \(worst (?P<worst>\S+), budget (?P<budget>[^)]+)\)")


class Verify(Workload):
    """All five `verify` suites at their default counts; pass i uses verify seed `seed + 1000 (i mod 5)`."""

    name = "verify"
    # each pass of a round runs another verify seed, and the constraint
    # suite's cost varies from 98k to 237k nodes between seeds, so the
    # median needs several of them.  Runs hold whole rounds of the same five
    # seeds, and the traced run a fixed two, so that a faster program is
    # timed on the same inputs as a slower one.
    round_passes = 5
    trace_pairs = 2

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.outputs: dict[int, dict[str, str]] = {}
        self.worst_ratio = 0.0
        self.properties = 0

    def pass_seed(self, i: int) -> int:
        return self.seed + 1000 * (i % self.round_passes)

    def setup(self):
        super().setup()
        parser = self.pkg.cli.build_parser()
        for suite in self.pkg.verify.SUITE_NAMES:
            parser.parse_args(["verify", "--suite", suite, "--seed", str(self.seed)])

    def _run(self, suite: str, seed: int, extra=()):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.pkg.cli.main(["verify", "--suite", suite, "--seed", str(seed), *extra])
        return rc, buf.getvalue()

    def run_pass(self, i: int, capture: bool, clock) -> tuple[float, float]:
        replacements = []
        if capture:
            replacements = [(self.pkg.verify, "integrate", self._drift_capture(self.pkg.verify.integrate))]
        seed = self.pass_seed(i)
        self._excluded = 0.0
        with patched(replacements):
            outputs, raw, factor = clock.measure(
                lambda: {suite: self._run(suite, seed) for suite in self.pkg.verify.SUITE_NAMES}
            )
        dt = raw - self._excluded
        properties = 0
        for suite, (rc, text) in outputs.items():
            results = [m for m in map(_RESULT.match, text.splitlines()) if m]
            properties += len(results)
            for m in results:
                self.worst_ratio = max(self.worst_ratio, float(m["worst"]) / float(m["budget"]))
            failing = not results or any(m["verdict"] != "PASS" for m in results)
            self.operation({"exit": rc != 0, "property": failing}, f"verify pass {i} suite {suite}")
        self.properties = max(self.properties, properties)
        self.outputs[i] = {suite: text for suite, (rc, text) in outputs.items()}
        return dt, dt * factor

    def finish(self):
        self.accuracy = {"c_drift_scaled": self._drift, "verify_worst_ratio": self.worst_ratio}
        self.check("every suite exits 0", not self.problems["exit"])
        self.check(f"all {self.properties} properties PASS", not self.problems["property"])
        self.check("worst/budget below 0.5 on every property", self.worst_ratio < 0.5, f"{self.worst_ratio:.3g}")
        # determinism, untimed: the cheap suites again on pass 0's seed, and a
        # short constraint run twice (the full one would cost a whole pass)
        seed = self.pass_seed(0)
        same = all(
            self._run(suite, seed)[1] == self.outputs[0][suite]
            for suite in self.pkg.verify.SUITE_NAMES
            if suite != "constraint"
        )
        short = ("--count", "5")
        same = same and self._run("constraint", seed, short)[1] == self._run("constraint", seed, short)[1]
        self.operation({"determinism": not same}, "verify rerun")
        self.check("two runs on one seed print byte-identical results", same)
        self.check("scaled C drift below 1e-8", 0.0 < self._drift < 1e-8, f"{self._drift:.3e}")
        return [f"verify: {self.properties} properties per pass, worst/budget {self.worst_ratio:.3g}"]

    def baseline_counts(self, c):
        got = tuple(
            int(c.get("verify.constraint." + k, 0))
            for k in ("integrations", "accepted", "nodes", "pole_runs", "pole_nodes", "useful_nodes")
        )
        integrations, accepted, nodes, pole_runs, pole_nodes, useful = got
        lines = [
            f"constraint suite (verify seed {self.pass_seed(0)}): {integrations} integrations buy {accepted} "
            f"accepted draws; {nodes} nodes, of which {pole_runs} rejected pole runs carry {pole_nodes} and "
            f"{integrations - accepted - pole_runs} rejected unbounded runs {nodes - useful - pole_nodes}"
        ]
        if self.seed == 0:
            want = (118, 50, 123194, 59, 112803)
            lines.append(
                "baseline (118 integrations, 50 accepted, 123194 nodes, 59 pole runs with 112803 nodes): "
                + ("match" if got[:5] == want else f"differs: {got[:5]}")
            )
        return lines


# --------------------------------------------------------------- postprocess

#: zeros in the pool: real piv0 tangential, real piv beta != 0 crossings, complex-path piv
POOL = {"tangential": 40, "crossing": 16, "complex": 8}
#: half-length of the path on either side of the known zero at z = 0
HALF_SPAN = 0.6
#: dense_eval grid points per node
GRID_PER_NODE = 4
#: an event within this distance of z = 0 counts as the known zero
CAPTURE = 1e-4
#: per class, the fewest zeros that must be found and the position error they
#: must stay within.  Seeds 0-10 found 4-9 tangential zeros within 4.1e-6 and
#: every crossing within 2.3e-10.  The floors and limits leave room for
#: rounding changes: half the fewest tangential finds, and about ten times the
#: largest position errors.  No complex zero is found at baseline (a known
#: defect), so that class has no floor yet and only the capture radius.
RECALL_FLOOR = {"tangential": (2, 4e-5), "crossing": (POOL["crossing"], 2e-9), "complex": (0, CAPTURE)}


@dataclass
class PoolItem:
    cls: str
    traj: object
    grid: list
    lift: bool


class Postprocess(Workload):
    """Read and write side only: zeros, curvature, sqrt lift, dense grid, CSV and JSON of a fixed pool."""

    name = "postprocess"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.first: list | None = None
        self.events: list = []
        self.violations = 0

    def _pool_specs(self):
        """Stratified draws, so each seed covers the same spread of curvatures, betas and directions."""
        rng = random.Random(self.seed)
        specs = []
        n = POOL["tangential"]
        for k in range(n):
            w2 = (1.0 if k % 2 == 0 else -1.0) * 10.0 ** (-1.0 + 2.0 * (k + rng.random()) / n)
            specs.append(("tangential", 0.0, 0.0, +1, w2, 1.0))
        n = POOL["crossing"]
        for k in range(n):
            beta = 0.3 + 1.7 * (k + rng.random()) / n
            specs.append(("crossing", rng.uniform(-1.0, 1.0), beta, rng.choice((1, -1)), rng.uniform(-1.0, 1.0), 1.0))
        n = POOL["complex"]
        for k in range(n):
            d = cmath.exp(0.5j * math.pi * (k + rng.random()) / n)
            specs.append(("complex", rng.uniform(-1.0, 1.0), rng.uniform(0.3, 2.0), +1, rng.uniform(-1.0, 1.0), d))
        return specs

    def _through_zero(self, cls, alpha, beta, branch, w2, d):
        """Integrate back from a zero seed at z = 0, then forward through it (as in the interior-tangency fixture)."""
        integ, eq = self.pkg.integrator, self.pkg.equations
        kind = eq.EquationKind.PIV0 if cls == "tangential" else eq.EquationKind.PIV
        p = eq.Params(alpha, beta)
        if cls == "complex":
            field = eq.ScalarField.COMPLEX
            back = integ.integrate(kind, p, integ.InitialData.zero(0j, branch, complex(w2), field, -d), HALF_SPAN)
            j = back.nodes[-1].jet
            return integ.integrate(kind, p, integ.InitialData.raw(j.z, j.w, j.w1, j.w2, field, d), 2 * HALF_SPAN)
        back = integ.integrate(kind, p, integ.InitialData.zero(0.0, branch, w2), -HALF_SPAN)
        j = back.nodes[-1].jet
        return integ.integrate(kind, p, integ.InitialData.raw(j.z, j.w, j.w1, j.w2), 2 * HALF_SPAN)

    def setup(self):
        super().setup()
        # a library caller's choice: the curvature check logs each violation
        # as a warning, and the pool holds violations on purpose
        logging.getLogger("painleve4").setLevel(logging.ERROR)
        pool = []
        for cls, alpha, beta, branch, w2, d in self._pool_specs():
            traj = self._through_zero(cls, alpha, beta, branch, w2, d)
            n = GRID_PER_NODE * len(traj.nodes)
            if cls == "complex":
                lo, hi = 0.0, traj.span
            else:
                lo, hi = traj.z0, traj.nodes[-1].jet.z
            grid = [lo + (hi - lo) * k / (n - 1) for k in range(n)]
            pool.append(PoolItem(cls, traj, grid, cls == "tangential" and w2 > 0))
        fingerprint = [(len(it.traj.nodes), vars(it.traj.nodes[-1].jet)) for it in pool]
        if getattr(self, "fingerprint", fingerprint) != fingerprint:
            raise RuntimeError("the pool differs between two set-ups on one seed")
        self.fingerprint = fingerprint
        self.pool = pool

    def _process(self, k: int, item: PoolItem):
        integ, zeros, oracles, cli = self.pkg.integrator, self.pkg.zeros, self.pkg.oracles, self.pkg.cli
        traj = item.traj
        events = zeros.locate_zeros(traj)
        violations = 0
        if item.cls == "tangential":
            violations = len(zeros.check_curvature_theorem(events, traj).violations)
        if item.lift:
            near = [e for e in events if abs(e.a) < HALF_SPAN / 2]
            oracles.sqrt_lift(traj, near[0] if near else None, (-HALF_SPAN / 2, HALF_SPAN / 2))
        checksum = 0.0
        for x in item.grid:
            checksum += integ.dense_eval(traj, x).w
        cli.write_trajectory_csv(self.out / f"traj{k:03d}.csv", traj)
        summary = cli.json_dumps(cli.summary_json(traj, events)) + "\n"
        (self.out / f"traj{k:03d}.json").write_text(summary, encoding="utf-8")
        return events, violations, checksum

    def _process_pool(self):
        results = []
        for k, item in enumerate(self.pool):
            try:
                results.append(self._process(k, item))
            except Exception:  # one failing trajectory is counted, the pass goes on
                traceback.print_exc()
                results.append(None)
        return results

    def run_pass(self, i: int, capture: bool, clock) -> tuple[float, float]:
        results, dt, factor = clock.measure(self._process_pool)
        outputs = [
            None if res is None else
            (tuple(digest((self.out / f"traj{k:03d}.{ext}").read_bytes()) for ext in ("csv", "json")), res[2])
            for k, res in enumerate(results)
        ]  # fmt: skip
        if capture:
            self.first = outputs
            self.events = [res[0] if res else () for res in results]
            self.violations = sum(res[1] for res in results if res)
        for k, out in enumerate(outputs):
            where = f"postprocess pass {i} item {k}"
            self.operation({"raised": out is None, "determinism": out != self.first[k]}, where)
        return dt, dt * factor

    def finish(self):
        cli = self.pkg.cli
        exact = True
        for k, item in enumerate(self.pool):
            rows = cli.read_trajectory_csv(self.out / f"traj{k:03d}.csv")
            exact = exact and len(rows) == len(item.traj.nodes)
            for row, node in zip(rows, item.traj.nodes):
                j = node.jet
                got = (complex(row["z_re"], row["z_im"]), complex(row["w_re"], row["w_im"]),
                       complex(row["w1_re"], row["w1_im"]), complex(row["w2_re"], row["w2_im"]),
                       row["h"], row["err_est"], complex(row["C_re"], row["C_im"]),
                       complex(row["res2_re"], row["res2_im"]))  # fmt: skip
                exact = exact and got == (j.z, j.w, j.w1, j.w2, node.h, node.err_est, node.c, node.res2)
        self.operation({"read-back": not exact}, "postprocess read-back")
        by_class = {cls: [0, 0, 0.0] for cls in POOL}  # known, found and classified, max |a - 0|
        for item, events in zip(self.pool, self.events):
            stats = by_class[item.cls]
            stats[0] += 1
            hits = [e for e in events if abs(e.a) < CAPTURE and e.branch.value != "unresolved"]
            if hits:
                stats[1] += 1
                stats[2] = max(stats[2], min(abs(e.a) for e in hits))
        known = sum(s[0] for s in by_class.values())
        found = sum(s[1] for s in by_class.values())
        pos_err = max(s[2] for s in by_class.values())
        drift = max(scaled_c_drift(it.traj) for it in self.pool)
        self.accuracy = {
            "c_drift_scaled": drift,
            "zero_recall": found / known,
            "zero_pos_err": pos_err,
        }
        self.layer_extras = {"zeros.known_zeros": known, "zeros.known_found": found, "zeros.pos_err_max": pos_err}
        self.check("no operation raised", not self.problems["raised"])
        self.check("passes on one seed write byte-identical CSV and JSON", not self.problems["determinism"])
        self.check("every CSV parses back to the exact node values", exact)
        for cls, (n, hit, err) in by_class.items():
            floor, max_err = RECALL_FLOOR[cls]
            self.check(f"{cls}: at least {floor} of {n} zeros found and classified, within {max_err:g}",
                       hit >= floor and err < max_err, f"{hit} found, max error {err:.3e}")  # fmt: skip
        self.check("scaled C drift below 1e-8", 0.0 < drift < 1e-8, f"{drift:.3e}")
        lines = [f"pool: {len(self.pool)} trajectories, {sum(len(it.traj.nodes) for it in self.pool)} nodes"]
        for cls, (n, hit, err) in by_class.items():
            lines.append(f"  {cls:10s} known zeros {n:3d}  found and classified {hit:3d}  max position error {err:.3e}")
        lines.append(f"  curvature-theorem violations (pass 0): {self.violations}")
        return lines


WORKLOADS = {w.name: w for w in (Sweep, Verify, Postprocess)}
