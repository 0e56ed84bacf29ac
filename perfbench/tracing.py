"""Spans and counters recorded from outside the package.

Nothing inside ``src/`` is instrumented.  The tracer replaces the module
attributes that callers look up at call time (``cli.integrate``,
``integrator.rhs3``, ``zeros.dense_eval_param`` ...) with wrappers and
restores the originals when the traced pass ends.  A layer boundary gets a
span (start, end, parent); the per-step calls into ``equations`` get a bare
counter instead, because a span there would cost more than the call.

Spans are aggregated as they close, so memory stays flat however many
``dense_eval`` calls a pass makes: per name the tracer keeps the call
count, the busy time and the self time, which is the busy time minus the
part covered by child spans.
"""

import contextlib
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# `verify._draw_bounded_run` accepts a constraint draw when the run completes
# with max|w| <= 3 (its default w_cap); the yield metrics use the same rule.
CONSTRAINT_W_CAP = 3.0

SUITES = ("identities", "constraint", "closed-forms", "xxix-integrals", "sqrt")

PER_LAYER = {
    "integrator.integrate.calls": "count",
    "integrator.integrate.busy_s": "s",
    "integrator.integrate.nodes": "count",
    "integrator.integrate.us_per_node": "us",
    "integrator.integrate.pole_node_share": "ratio",
    "integrator.integrate.status.completed": "count",
    "integrator.integrate.status.pole": "count",
    "integrator.integrate.status.step_underflow": "count",
    "equations.rhs3.calls": "count",
    "equations.rhs3.calls_per_node": "ratio",
    "equations.monitor.calls": "count",
    "integrator.dense_eval.calls": "count",
    "integrator.dense_eval.busy_s": "s",
    "integrator.dense_eval.us_per_call": "us",
    "zeros.locate_zeros.calls": "count",
    "zeros.locate_zeros.busy_s": "s",
    "zeros.locate_zeros.events": "count",
    "zeros.dense_calls_per_event": "ratio",
    "zeros.curvature_violations": "count",
    "zeros.known_zeros": "count",
    "zeros.known_found": "count",
    "zeros.pos_err_max": "dz",
    "oracles.sqrt_lift.busy_s": "s",
    **{f"verify.run_suite.busy_s.{s}": "s" for s in SUITES},
    "verify.integrations": "count",
    "verify.draw_yield": "ratio",
    "verify.useful_node_share": "ratio",
    "cli.write_trajectory_csv.busy_s": "s",
    "cli.write_trajectory_csv.us_per_row": "us",
    "cli.write_trajectory_csv.bytes": "bytes",
    "cli.summary_json.busy_s": "s",
    "cli.json_dumps.busy_s": "s",
    "cli.run_sweep.self_s": "s",
    "trace.overhead_share": "ratio",
}


@contextlib.contextmanager
def patched(replacements):
    """Set (module, attribute, value) triples for the duration of the block."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in replacements]
    try:
        for module, name, value in replacements:
            setattr(module, name, value)
        yield
    finally:
        for module, name, value in reversed(saved):
            setattr(module, name, value)


class Tracer:
    """Per-pass span aggregates and counters; `take()` hands them over and resets.

    Span durations leave out the time the clock's speed probes ran inside them.
    """

    def __init__(self, clock):
        self.clock = clock
        self.counts = defaultdict(float)
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, busy_s, self_s]
        self._stack = []  # child time covered so far, one cell per open span
        self._open = defaultdict(int)
        self.suite = None

    def take(self, factor):
        """This pass's counters and span aggregates, times rescaled by `factor`; then reset."""
        counts = {k: v * factor if "busy_s" in k else v for k, v in self.counts.items()}
        spans = {k: (n, busy * factor, own * factor) for k, (n, busy, own) in self.spans.items()}
        self.counts.clear()
        self.spans.clear()
        return counts, spans

    def span(self, name, fn, after=None):
        """Wrap fn in a span; a recursive call inside an open span of the same name is not split out."""
        spans, stack, is_open, clock = self.spans, self._stack, self._open, self.clock

        def wrapper(*args, **kwargs):
            if is_open[name]:
                return fn(*args, **kwargs)
            cell = [0.0]
            stack.append(cell)
            is_open[name] += 1
            p0 = clock.probe_total
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0 - (clock.probe_total - p0)
                is_open[name] -= 1
                stack.pop()
                agg = spans[name]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - cell[0]
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def instrumentation(tracer, pkg):
    """The (module, attribute, wrapper) triples that trace every layer boundary of the package."""
    cli, integrator, zeros, oracles, verify = pkg.cli, pkg.integrator, pkg.zeros, pkg.oracles, pkg.verify
    counts = tracer.counts

    def after_integrate(args, traj):
        n = len(traj.nodes)
        counts["integrate.nodes"] += n
        counts["integrate.status." + traj.status.value] += 1
        if traj.status.value == "pole":
            counts["integrate.pole_nodes"] += n

    def after_verify_integrate(args, traj):
        after_integrate(args, traj)
        counts["verify.integrations"] += 1
        if tracer.suite == "constraint":
            n = len(traj.nodes)
            counts["verify.constraint.integrations"] += 1
            counts["verify.constraint.nodes"] += n
            if traj.status.value == "pole":
                counts["verify.constraint.pole_runs"] += 1
                counts["verify.constraint.pole_nodes"] += n
            if traj.status.value == "completed" and traj.max_abs_w() <= CONSTRAINT_W_CAP:
                counts["verify.constraint.accepted"] += 1
                counts["verify.constraint.useful_nodes"] += n

    def after_locate(args, events):
        counts["locate_zeros.events"] += len(events)

    def after_curvature(args, report):
        counts["curvature_violations"] += len(report.violations)

    def after_csv(args, result):
        counts["write_trajectory_csv.rows"] += len(args[1].nodes)
        counts["write_trajectory_csv.bytes"] += Path(args[0]).stat().st_size

    integrate = tracer.span("integrator.integrate", integrator.integrate, after_integrate)
    verify_integrate = tracer.span("integrator.integrate", integrator.integrate, after_verify_integrate)
    dense_eval = tracer.span("integrator.dense_eval", integrator.dense_eval)
    locate = tracer.span("zeros.locate_zeros", zeros.locate_zeros, after_locate)
    curvature = tracer.span("zeros.check_curvature_theorem", zeros.check_curvature_theorem, after_curvature)
    suite_span = tracer.span("verify.run_suite", cli.run_suite)

    def run_suite(suite, seed, count=None):
        tracer.suite = suite
        before = tracer.spans["verify.run_suite"][1]
        try:
            return suite_span(suite, seed, count)
        finally:
            counts["run_suite.busy_s." + suite] += tracer.spans["verify.run_suite"][1] - before
            tracer.suite = None

    return [
        (integrator, "rhs3", tracer.counter("rhs3", integrator.rhs3)),
        (integrator, "constraint_c", tracer.counter("monitor", integrator.constraint_c)),
        (integrator, "residual2", tracer.counter("monitor", integrator.residual2)),
        (verify, "constraint_c", tracer.counter("monitor", verify.constraint_c)),
        (verify, "residual2", tracer.counter("monitor", verify.residual2)),
        (integrator, "integrate", integrate),
        (integrator, "dense_eval", dense_eval),
        (zeros, "dense_eval_param", tracer.counter("zeros.dense_calls", zeros.dense_eval_param)),
        (zeros, "locate_zeros", locate),
        (zeros, "check_curvature_theorem", curvature),
        (oracles, "locate_zeros", locate),
        (oracles, "sqrt_lift", tracer.span("oracles.sqrt_lift", oracles.sqrt_lift)),
        (verify, "integrate", verify_integrate),
        (verify, "dense_eval", dense_eval),
        (cli, "integrate", integrate),
        (cli, "dense_eval", dense_eval),
        (cli, "locate_zeros", locate),
        (cli, "check_curvature_theorem", curvature),
        (cli, "run_suite", run_suite),
        (cli, "run_sweep", tracer.span("cli.run_sweep", cli.run_sweep)),
        (cli, "write_trajectory_csv", tracer.span("cli.write_trajectory_csv", cli.write_trajectory_csv, after_csv)),
        (cli, "summary_json", tracer.span("cli.summary_json", cli.summary_json)),
        (cli, "json_dumps", tracer.span("cli.json_dumps", cli.json_dumps)),
    ]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(counts, spans, passes):
    """Per-pass layer metrics from counters and span aggregates summed over `passes` traced passes."""

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def busy(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    nodes = counts.get("integrate.nodes", 0.0)
    events = counts.get("locate_zeros.events", 0.0)
    rows = counts.get("write_trajectory_csv.rows", 0.0)
    total = {
        "integrator.integrate.calls": calls("integrator.integrate"),
        "integrator.integrate.busy_s": busy("integrator.integrate"),
        "integrator.integrate.nodes": nodes,
        "equations.rhs3.calls": counts.get("rhs3", 0.0),
        "equations.monitor.calls": counts.get("monitor", 0.0),
        "integrator.dense_eval.calls": calls("integrator.dense_eval"),
        "integrator.dense_eval.busy_s": busy("integrator.dense_eval"),
        "zeros.locate_zeros.calls": calls("zeros.locate_zeros"),
        "zeros.locate_zeros.busy_s": busy("zeros.locate_zeros"),
        "zeros.locate_zeros.events": events,
        "zeros.curvature_violations": counts.get("curvature_violations", 0.0),
        "oracles.sqrt_lift.busy_s": busy("oracles.sqrt_lift"),
        "verify.integrations": counts.get("verify.integrations", 0.0),
        "cli.write_trajectory_csv.busy_s": busy("cli.write_trajectory_csv"),
        "cli.write_trajectory_csv.bytes": counts.get("write_trajectory_csv.bytes", 0.0),
        "cli.summary_json.busy_s": busy("cli.summary_json"),
        "cli.json_dumps.busy_s": busy("cli.json_dumps"),
        "cli.run_sweep.self_s": spans.get("cli.run_sweep", (0, 0.0, 0.0))[2],
    }
    for status in ("completed", "pole", "step_underflow"):
        total[f"integrator.integrate.status.{status}"] = counts.get("integrate.status." + status, 0.0)
    for suite in SUITES:
        total[f"verify.run_suite.busy_s.{suite}"] = counts.get("run_suite.busy_s." + suite, 0.0)
    metrics = {name: value / passes for name, value in total.items()}
    metrics.update(
        {
            "integrator.integrate.us_per_node": 1e6 * _ratio(busy("integrator.integrate"), nodes),
            "integrator.integrate.pole_node_share": _ratio(counts.get("integrate.pole_nodes", 0.0), nodes),
            "equations.rhs3.calls_per_node": _ratio(counts.get("rhs3", 0.0), nodes),
            "integrator.dense_eval.us_per_call": 1e6
            * _ratio(busy("integrator.dense_eval"), calls("integrator.dense_eval")),
            "zeros.dense_calls_per_event": _ratio(counts.get("zeros.dense_calls", 0.0), events),
            "verify.draw_yield": _ratio(
                counts.get("verify.constraint.accepted", 0.0), counts.get("verify.constraint.integrations", 0.0)
            ),
            "verify.useful_node_share": _ratio(
                counts.get("verify.constraint.useful_nodes", 0.0), counts.get("verify.constraint.nodes", 0.0)
            ),
            "cli.write_trajectory_csv.us_per_row": 1e6 * _ratio(busy("cli.write_trajectory_csv"), rows),
        }
    )
    return metrics
