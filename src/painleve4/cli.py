"""Command-line front end: integrations, zero scans, verification suites, sweeps.

Commands
--------
integrate   run one integration, write a trajectory CSV and a JSON summary
zeros       integrate, locate and classify zeros, write events JSON
verify      run a randomized property suite, print pass/fail per property
sweep       grid of independent integrations over (alpha, beta)

CSV numbers are written at 17 significant digits and JSON numbers at their
shortest round-trip repr, so parsing either back reproduces the binary
values exactly.  The piv parameters follow the beta^2 convention of Ince's
form XXXI throughout; there is no conversion flag.

Every output file is written in place (`_write_output`): an existing file
is overwritten and then cut to the new length where it was longer, never
first truncated to zero.  Writes are neither atomic nor durable: a process
killed mid-write can leave the new head followed by the old file's tail.

A refused specification exits 1 with `error: --flag: ...` (argparse's own
refusals: usage, then its message): a library message leads with its field
(`w0`, `branch`, `span`), and `main` alone names the command's flag for it.

Environment: PAINLEVE_LOG = error|warn|info|debug (default warn).
"""

import argparse
import csv
import io
import json
import logging
import math
import os
import stat
import sys
from functools import cache
from pathlib import Path
from typing import NamedTuple

from .equations import KINDS, EquationKind, Params, Scalar, ScalarField
from .errors import PainleveError, WrongKind
from .integrator import (
    InitialData,
    Tolerances,
    Trajectory,
    TrajectoryStatus,
    check_span,
    check_zero_seed,
    dense_eval,  # noqa: F401 -- unused here; perfbench/tracing.py patches cli.dense_eval
    integrate,
)
from .verify import DEFAULT_COUNTS, SUITE_NAMES, nan_max, run_suite
from .zeros import CurvatureReport, ZeroEvent, check_curvature_theorem, locate_zeros

logger = logging.getLogger(__name__)

CONVENTION_NOTE = "Ince XXXI β² convention"

CSV_HEADER = "z_re,z_im,w_re,w_im,w1_re,w1_im,w2_re,w2_im,h,err_est,C_re,C_im,res2_re,res2_im"
# one trajectory CSV row: "%.17g" % x is fmt_float(x) for every float x, inf, nan and -0.0 included
_CSV_ROW = ",".join(["%.17g"] * len(CSV_HEADER.split(",")))

_LOG_LEVELS = {
    "error": logging.ERROR,
    "warn": logging.WARNING,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _parts(x: Scalar) -> tuple[float, float]:
    if isinstance(x, complex):
        return x.real, x.imag
    return float(x), 0.0


def _scalar_json(x: Scalar | None):
    """None, a float, or [re, im]; a non-finite float as the string "inf", "-inf" or "nan", which float() reads back."""
    if x is None:
        return None
    if isinstance(x, complex):
        return [_scalar_json(x.real), _scalar_json(x.imag)]
    x = float(x)
    return x if math.isfinite(x) else str(x)


def json_dumps(obj) -> str:
    """Strict JSON text indented by two spaces, keys in insertion order, floats at their shortest round-trip repr."""
    return json.dumps(obj, indent=2, ensure_ascii=False, allow_nan=False)


def _write_output(path: Path, text: str) -> None:
    """Write text as UTF-8 bytes to path, over an existing file in place.

    The file is opened without O_TRUNC and, where it was longer than the new
    text, cut to the new length after the write.  Truncating to zero first
    makes ext4 (with auto_da_alloc), XFS and btrfs flush the file at close,
    which costs a multiple of the write.  The file keeps its inode, mode and
    links; a symlink writes its target; a new file gets 0o666 less the
    umask.  Only a regular file is cut: a pipe behind /dev/stdout or a device
    such as /dev/null is written and left as it is (ftruncate fails on a
    device, where lseek does not).  O_BINARY keeps Windows from writing
    "\r\n".
    """
    data = text.encode("utf-8")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
    st = os.fstat(fd)
    with open(fd, "wb") as fh:
        fh.write(data)
        # a new file, or one no longer than data, has no old tail to cut
        if stat.S_ISREG(st.st_mode) and st.st_size > len(data):
            fh.truncate()


def write_trajectory_csv(path: Path, traj: Trajectory) -> None:
    lines = [CSV_HEADER]
    for node in traj.nodes:
        z, w, w1, w2 = node.jet
        zr, zi = _parts(z)
        wr, wi = _parts(w)
        w1r, w1i = _parts(w1)
        w2r, w2i = _parts(w2)
        rr, ri = _parts(node.res2)
        # the C_* columns repeat res2_*, which on piv and piv0 is C
        lines.append(_CSV_ROW % (zr, zi, wr, wi, w1r, w1i, w2r, w2i, node.h, node.err_est, rr, ri, rr, ri))
    _write_output(path, "\n".join(lines) + "\n")


def read_trajectory_csv(path: Path) -> list[dict[str, float]]:
    """Parse a trajectory CSV back into per-node dicts of floats."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [dict(zip(header, map(float, row))) for row in reader]
    return rows


def _event_json(e: ZeroEvent) -> dict:
    return {
        "a": _scalar_json(e.a),
        "slope": _scalar_json(e.slope),
        "curvature": _scalar_json(e.curvature),
        "branch": e.branch.value,
        "curvature_nonzero": e.curvature_nonzero,
    }


def _report_json(report: CurvatureReport | None):
    if report is None:
        return None
    return {"ok": report.ok, "violations": [_scalar_json(e.a) for e in report.violations]}


def summary_json(traj: Trajectory, events: tuple[ZeroEvent, ...] = ()) -> dict:
    return {
        "equation": traj.kind.value,
        "params": {"alpha": traj.params.alpha, "beta": traj.params.beta},
        "convention": CONVENTION_NOTE,
        "field": traj.field.value,
        "status": traj.status.value,
        "pole_estimate": _scalar_json(traj.pole_estimate),
        "pole_bound": _scalar_json(traj.pole_bound),
        "node_count": len(traj.nodes),
        "max_abs_res2": _scalar_json(nan_max(*[abs(n.res2) for n in traj.nodes])),
        "events": [_event_json(e) for e in events],
        "stats": traj.stats,
    }


def _build_initial(ns, field: ScalarField, direction: Scalar) -> InitialData:
    branch = {None: None, "plus": +1, "minus": -1}[ns.zero_branch]
    return InitialData(ns.z0, ns.w0, ns.w1, ns.w2, branch, field, direction)


def _build_runspec(ns, field: ScalarField = ScalarField.REAL, direction: Scalar = 1.0) -> tuple:
    """`integrate`'s (kind, params, init, span, tol) from the parsed arguments; each record checks its own."""
    params, tol = Params(ns.alpha, ns.beta), Tolerances(ns.rel, ns.abs)
    return EquationKind(ns.eq), params, _build_initial(ns, field, direction), ns.span, tol


def _exit_code(traj: Trajectory) -> int:
    return 0 if traj.status in (TrajectoryStatus.COMPLETED, TrajectoryStatus.POLE) else 2


def cmd_integrate(ns) -> int:
    direction = complex(ns.dir_re, ns.dir_im) if ns.dir_im else ns.dir_re  # REAL mode takes a real one only
    traj = integrate(*_build_runspec(ns, ScalarField(ns.field), direction))
    out, summary = Path(ns.out or "trajectory.csv"), Path(ns.summary or "summary.json")
    write_trajectory_csv(out, traj)
    _write_output(summary, json_dumps(summary_json(traj)) + "\n")
    print(f"{traj.status.value}: {len(traj.nodes)} nodes -> {out}, summary -> {summary}")
    return _exit_code(traj)


def cmd_zeros(ns) -> int:
    traj = integrate(*_build_runspec(ns))
    events = locate_zeros(traj)
    identically_zero = traj.max_abs_w() == 0.0
    if identically_zero:
        logger.warning("identically zero trajectory: zeros are not isolated, no events reported")
    try:
        report = check_curvature_theorem(events, traj)
    except WrongKind:  # outside the domain the check states, there is no report
        report = None
    summary = summary_json(traj, events)
    payload = {**summary, "identically_zero": identically_zero, "curvature_report": _report_json(report)}
    out = Path(ns.out or "events.json")
    _write_output(out, json_dumps(payload) + "\n")
    _write_output(Path(ns.summary or "summary.json"), json_dumps(summary) + "\n")
    print(f"{traj.status.value}: {len(events)} zero event(s) -> {out}")
    return _exit_code(traj)


def cmd_verify(suite: str, seed: int, count: int | None) -> int:
    results = run_suite(suite, seed, count)
    for r in results:
        print(r.line())
    return 0 if all(r.passed for r in results) else 3


class SweepCell(NamedTuple):
    alpha: float
    beta: float
    status: str
    node_count: int
    pole_estimate: Scalar | None
    max_c_drift: float | None
    events: tuple[ZeroEvent, ...]
    error: str = ""
    stats: dict | None = None


def run_sweep(
    kind: EquationKind,
    alphas: list[float],
    betas: list[float],
    init: InitialData,
    span: float,
    tol: Tolerances,
) -> list[SweepCell]:
    """Independent integrations over the parameter grid, in deterministic grid order.

    Each cell is isolated: a failing cell records its error and leaves the
    rest of the grid untouched.
    """
    cells = []
    for alpha in alphas:
        for beta in betas:
            try:
                params = Params(alpha, beta)
                traj = integrate(kind, params, init, span, tol)
                events = locate_zeros(traj)
                r0 = traj.nodes[0].res2
                drift = nan_max(*[abs(n.res2 - r0) for n in traj.nodes])
                cells.append(
                    SweepCell(
                        alpha=alpha,
                        beta=beta,
                        status=traj.status.value,
                        node_count=len(traj.nodes),
                        pole_estimate=traj.pole_estimate,
                        max_c_drift=drift,
                        events=events,
                        stats=traj.stats,
                    )
                )
            except Exception as exc:  # noqa: BLE001  (per-cell isolation is the contract)
                cells.append(SweepCell(alpha, beta, "error", 0, None, None, (), str(exc)))
    return cells


def _grid(name: str, lo: float, hi: float, steps: int) -> list[float]:
    grid = [lo] if steps == 1 else [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    if not all(map(math.isfinite, grid)):  # an infinite end, or a width that overflows
        raise ValueError(f"--{name}-min/--{name}-max: grid from {lo!r} to {hi!r} has a point that is not finite")
    return grid


def _stats_cells(stats: dict | None) -> list:
    # an errored cell has no trajectory: its three step-counter columns stay empty
    if stats is None:
        return [""] * 3
    return [stats["accepted"], *("" if h is None else fmt_float(h) for h in (stats["h_min"], stats["h_max"]))]


def write_sweep_csv(path: Path, cells: list[SweepCell]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        "alpha,beta,status,node_count,zero_count,pole_est_re,pole_est_im,max_c_drift,error,"
        "accepted,h_min,h_max".split(",")
    )
    for cell in cells:
        if cell.pole_estimate is None:
            pole_re, pole_im = "", ""
        else:
            pole_re, pole_im = map(fmt_float, _parts(cell.pole_estimate))
        writer.writerow(
            [
                fmt_float(cell.alpha),
                fmt_float(cell.beta),
                cell.status,
                cell.node_count,
                len(cell.events),
                pole_re,
                pole_im,
                "" if cell.max_c_drift is None else fmt_float(cell.max_c_drift),
                cell.error,
                *_stats_cells(cell.stats),
            ]
        )
    _write_output(path, buf.getvalue())


def cmd_sweep(ns) -> int:
    kind = EquationKind(ns.eq)
    for name, steps in (("alpha", ns.alpha_steps), ("beta", ns.beta_steps)):
        if steps < 1:
            raise ValueError(f"--{name}-steps: grid is empty (steps = {steps})")
    # from the step counts, before either grid list is built
    if ns.alpha_steps * ns.beta_steps > 1_000_000:
        raise ValueError(f"--alpha-steps/--beta-steps: grid of {ns.alpha_steps * ns.beta_steps} cells exceeds 1e6")
    alphas = _grid("alpha", ns.alpha_min, ns.alpha_max, ns.alpha_steps)
    betas = _grid("beta", ns.beta_min, ns.beta_max, ns.beta_steps)
    check_span(ns.span)  # before the first cell, which would refuse it as every other cell does
    # so too a nonzero grid on a kind without parameters; a grid with a nonzero point has a nonzero end
    for name, grid in (("alpha", alphas), ("beta", betas)):
        if (value := grid[0] or grid[-1]) and not KINDS[kind].params:
            raise ValueError(f"--{name}-min/--{name}-max: {kind.value} requires alpha = beta = 0, got {name} = {value!r}")
    tol = Tolerances(ns.rel, ns.abs)
    init = _build_initial(ns, ScalarField.REAL, 1.0)
    check_zero_seed(kind, init)  # so too a zero seed on a kind without one, whatever the cell's alpha and beta
    cells = run_sweep(kind, alphas, betas, init, ns.span, tol)
    out = Path(ns.out) if ns.out else Path("sweep.csv")
    write_sweep_csv(out, cells)
    failures = sum(1 for c in cells if c.error)
    print(f"{len(cells)} cells -> {out} ({failures} failed)")
    return 1 if cells and failures == len(cells) else 0


class _Parser(argparse.ArgumentParser):
    # spec-validation failures exit 1, not argparse's default 2
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


def _add_common(sub: argparse.ArgumentParser, *, sweep=False) -> None:
    # sweep takes alpha and beta from its grid and writes no summary
    sub.add_argument("--eq", choices=[k.value for k in EquationKind], required=True, help="equation kind")
    if not sweep:
        sub.add_argument("--alpha", type=float, default=0.0, help="alpha parameter (piv only)")
        sub.add_argument("--beta", type=float, default=0.0, help="beta parameter, Ince XXXI beta^2 convention")
    sub.add_argument("--z0", type=float, default=0.0, help="initial point")
    sub.add_argument("--w0", type=float, default=None, help="initial w, nonzero unless --w2 or --zero-branch is given")
    sub.add_argument("--w1", type=float, default=None, help="initial w'")
    sub.add_argument("--w2", type=float, default=None, help="initial w''; its presence selects a raw jet")
    sub.add_argument(
        "--zero-branch",
        choices=["plus", "minus"],
        default=None,
        help="seed a zero of w with slope +beta or -beta (piv/piv0); --w2 sets the free curvature",
    )
    sub.add_argument("--span", type=float, required=True, help="signed integration span (arc length in COMPLEX mode)")
    sub.add_argument("--rel", type=float, default=1e-10, help="relative tolerance")
    sub.add_argument("--abs", type=float, default=1e-10, help="absolute tolerance")
    sub.add_argument("--out", default=None, help="primary output file")
    if not sweep:
        sub.add_argument("--summary", default=None, help="summary JSON file")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="painleve4", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    subs = parser.add_subparsers(dest="command", required=True)

    p_int = subs.add_parser("integrate", help="integrate one trajectory")
    _add_common(p_int)
    p_int.add_argument("--field", choices=["real", "complex"], default="real", help="scalar field")
    p_int.add_argument("--dir-re", type=float, default=1.0, help="real part of the unit path direction (COMPLEX mode)")
    p_int.add_argument("--dir-im", type=float, default=0.0, help="imaginary part of the path direction")

    # zeros and sweep run in REAL mode; only integrate takes a path
    p_zeros = subs.add_parser("zeros", help="integrate and scan for zeros of w")
    _add_common(p_zeros)

    p_verify = subs.add_parser("verify", help="run a randomized property suite")
    p_verify.add_argument("--suite", choices=list(SUITE_NAMES), required=True)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument(
        "--count", type=int, default=None, help=f"instances to draw (defaults: {DEFAULT_COUNTS})"
    )

    p_sweep = subs.add_parser("sweep", help="grid of integrations over alpha and beta")
    _add_common(p_sweep, sweep=True)
    p_sweep.add_argument("--alpha-min", type=float, default=0.0)
    p_sweep.add_argument("--alpha-max", type=float, default=0.0)
    p_sweep.add_argument("--alpha-steps", type=int, default=1)
    p_sweep.add_argument("--beta-min", type=float, default=0.0)
    p_sweep.add_argument("--beta-max", type=float, default=0.0)
    p_sweep.add_argument("--beta-steps", type=int, default=1)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built once per process: parse_args reads it and keeps nothing from one call to the next."""
    return build_parser()


def log_level_from_env() -> int:
    value = os.environ.get("PAINLEVE_LOG", "warn")
    return _LOG_LEVELS.get(value.strip().lower(), logging.WARNING)


def _configure_logging() -> None:
    logging.basicConfig(
        level=log_level_from_env(), format="%(levelname)s %(name)s: %(message)s", stream=sys.stderr
    )


# a field's flag, where it is not "--" and the field's own name
_FLAGS = {"branch": "--zero-branch", "direction": "--dir-re/--dir-im"}


def main(argv=None) -> int:
    _configure_logging()
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if ns.command == "integrate":
            return cmd_integrate(ns)
        if ns.command == "zeros":
            return cmd_zeros(ns)
        if ns.command == "verify":
            return cmd_verify(ns.suite, ns.seed, ns.count)
        # the subcommand is required, so argparse lets no other command through
        return cmd_sweep(ns)
    except (ValueError, PainleveError) as exc:
        # a message leads with its field; where the command parsed that field's flag (a pair's first), name the flag
        field, sep, rest = str(exc).partition(": ")
        flag = _FLAGS.get(field, "--" + field)
        own = sep and hasattr(ns, flag[2:].split("/")[0].replace("-", "_"))
        print(f"error: {flag}: {rest}" if own else f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
