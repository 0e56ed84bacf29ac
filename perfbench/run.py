#!/usr/bin/env python3
"""painleve4 benchmark: one workload, one seed, a fixed measuring time.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep|verify|postprocess \
        --seed N --seconds S --trace 0|1

The package is imported from ./src.  With --trace 0 the passes run
untraced and the end-to-end metrics are reported; with --trace 1 each
untraced pass is followed by a traced pass on the same inputs, and the
per-layer metrics come from the traced ones.  The report goes to standard
output, one metric or check per line, and the last line is a JSON object
{"correct", "attempted", "failed", "metrics"}.  See perfbench/NOTES.md for
why the workloads and metrics are what they are.
"""

import argparse
import json
import math
import resource
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from clock import Clock  # noqa: E402
from tracing import PER_LAYER, Tracer, instrumentation, layer_metrics, patched  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "c_drift_digits": "digits"}


def spread_line(name, values, unit, what):
    """Median, the highest percentile with at least ten samples beyond it (else the max), and n."""
    n = len(values)
    med = statistics.median(values)
    if n >= 20:
        pct = math.floor(100 * (n - 10) / n)
        tail = f"p{pct} {statistics.quantiles(values, n=100)[pct - 1]:.4g}"
    else:
        tail = f"max {max(values):.4g}"
    return f"{name:16s} {med:.4g} {unit}  median, {tail} {unit}, n={n} {what}"


def would_overrun(start, done, seconds, at_least=1, step=1):
    """True when `at_least` passes and whole rounds of `step` are done, and one more round would end after `seconds`.

    The next round's length is estimated from the mean pass so far.
    """
    elapsed = perf_counter() - start
    return done >= at_least and done % step == 0 and elapsed * (done + step) / done > seconds


def untraced(work, seconds, clock):
    """Closed loop of passes until the next one would overrun; returns raw and rescaled durations."""
    raw, scaled = [], []
    start = perf_counter()
    while True:
        r, s = work.run_pass(len(raw), capture=not raw, clock=clock)
        raw.append(r)
        scaled.append(s)
        if would_overrun(start, len(raw), seconds, work.min_passes, work.round_passes):
            return raw, scaled


def traced(work, seconds, clock):
    """Pairs of an untraced and a traced pass on the same inputs, until --seconds or `work.trace_pairs`.

    Returns the rescaled durations of both kinds, the layer totals summed
    over the traced passes (times rescaled like the pass that holds them),
    and the counters of the first traced pass.
    """
    tracer = Tracer(clock)
    replacements = instrumentation(tracer, work.pkg)
    plain, with_trace, first = [], [], None
    counts, spans = defaultdict(float), defaultdict(lambda: [0, 0.0, 0.0])
    start = perf_counter()
    while True:
        i = len(plain)
        plain.append(work.run_pass(i, capture=i == 0, clock=clock)[1])
        with patched(replacements):
            raw, scaled = work.run_pass(i, capture=False, clock=clock)
        with_trace.append(scaled)
        pass_counts, pass_spans = tracer.take(scaled / raw)
        first = first or pass_counts
        for k, v in pass_counts.items():
            counts[k] += v
        for k, v in pass_spans.items():
            agg = spans[k]
            for j in range(3):
                agg[j] += v[j]
        if len(plain) == work.trace_pairs or (work.trace_pairs is None and would_overrun(start, len(plain), seconds)):
            return plain, with_trace, counts, spans, first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "painleve4" / "__init__.py").is_file():
        print(f"error: no painleve4 package under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2

    work = WORKLOADS[args.workload](root, args.seed)
    clock = Clock()
    raw_setups, setups = [], []
    for _ in range(work.setup_reps):
        _, raw_s, factor = clock.measure(work.setup)
        raw_setups.append(raw_s)
        setups.append(raw_s * factor)

    mode = "on" if args.trace else "off"
    print(f"painleve4 benchmark: workload {work.name}, seed {args.seed}, {args.seconds:g} s, tracing {mode}")
    if args.trace:
        plain, with_trace, counts, spans, first = traced(work, args.seconds, clock)
    else:
        raw, plain = untraced(work, args.seconds, clock)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    notes = work.finish()
    # floored below double rounding, so an exact run reads 18 digits, not a math error
    c_drift_digits = -math.log10(max(work.accuracy["c_drift_scaled"], 1e-18))

    print(spread_line("wall_s", plain, "s", "untraced passes, at the reference speed"))
    if not args.trace:
        print(spread_line("raw wall_s", raw, "s", "untraced passes, as timed"))
    print(spread_line("setup_s", setups, "s", "set-ups, at the reference speed"))
    print(spread_line("raw setup_s", raw_setups, "s", "set-ups, as timed"))
    print(f"{'peak_rss_mb':16s} {peak_rss_mb:.1f} MB")
    print(f"{'failed_share':16s} {work.failed / work.attempted:.4g}  ({work.failed} of {work.attempted} operations)")
    for name, value in work.accuracy.items():
        print(f"{name:16s} {value:.4g}")
    print(f"{'c_drift_digits':16s} {c_drift_digits:.4f} digits")
    for line in notes:
        print(line)
    for c in work.checks:
        print(f"check {'PASS' if c.ok else 'FAIL'}  {c.name}" + (f"  ({c.detail})" if c.detail else ""))
    correct = work.failed == 0 and all(c.ok for c in work.checks)

    if args.trace:
        print(spread_line("traced wall_s", with_trace, "s", "traced passes, at the reference speed"))
        for line in work.baseline_counts(first):
            print(line)
        layers = layer_metrics(counts, spans, len(with_trace))
        layers.update(work.layer_extras)
        layers["trace.overhead_share"] = sum(with_trace) / sum(plain)
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER.items()}
        for name, m in metrics.items():
            print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    else:
        values = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": peak_rss_mb,
            "c_drift_digits": c_drift_digits,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": correct, "attempted": work.attempted, "failed": work.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
