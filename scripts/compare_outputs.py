#!/usr/bin/env python3
"""Byte identity of a fixed list of CLI outputs, on one source tree or two.

Each output is one `painleve4` command, run by this interpreter in a fresh
process on the package under TREE/src, in an empty temporary directory.
Its artifacts are the files the command writes and its exit code with its
standard output (`stdout`), which is all that `verify` writes.  A command
refused with exit 1 adds its standard error to `stdout`, since that holds the
message; the refused commands listed all fail a check of the package, whose
messages, unlike argparse's, read the same on every interpreter.

Each command that writes files is then run again in the same directory,
after each file it wrote has had its own bytes appended, so that the rerun
overwrites a longer file.  Every artifact of the rerun must equal the first
run's: the last lines report how many do, per tree, and name any that does
not, and the exit code is then 1.

Usage:
    python scripts/compare_outputs.py TREE            one sha256 per artifact
    python scripts/compare_outputs.py PARENT CHANGE   identical or differs per artifact

With two trees, such as a `git archive` of the parent commit and the
working tree, the exit code is 1 when any artifact differs, or any rerun
differs from its first run, and 0 otherwise.
Each artifact that differs also says how far it moved: whether its shape
held, and the largest relative difference over its numbers.  A second line
gives that difference for each CSV column, JSON key or stdout line text whose
numbers moved, largest first, which tells a move by rounding from one with a
cause.  The shape is the artifact with every float replaced by a placeholder,
so it holds the CSV rows and text columns, the JSON keys, the statuses, and
every integer: exit codes, node and event counts.  A float is a number written
with a decimal point or an exponent; a CSV float that is exactly an integer is
written without either, and so counts as shape.
"""

import argparse
import csv
import hashlib
import io
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

_SUITES = ("identities", "constraint", "closed-forms", "xxix-integrals", "sqrt")
_SEEDS = (0, 7, 1000)
_README_SWEEP = (
    "sweep --eq piv --alpha-min -2 --alpha-max 2 --alpha-steps 11 "
    "--beta-min -2 --beta-max 2 --beta-steps 11 --z0 -1 --w0 0.5 --span 2 --out sweep.csv"
)
_TRAJECTORY = ("trajectory.csv", "summary.json")
_EVENTS = ("events.json", "summary.json")

# name -> (command line, files it writes); integrate and zeros write their default file names
OUTPUTS = {
    "sweep-readme": (_README_SWEEP, ("sweep.csv",)),
    **{
        f"verify-{suite}-seed-{seed}": (f"verify --suite {suite} --seed {seed}", ())
        for suite in _SUITES
        for seed in _SEEDS
    },
    # two of these 25 sqrt runs stop where |f| passes 3, and each is checked up to there
    "verify-sqrt-seed-6": ("verify --suite sqrt --seed 6", ()),
    "integrate-readme-xxxii": ("integrate --eq xxxii --z0 0 --w0 2 --w1 3 --span 4", _TRAJECTORY),
    "integrate-readme-zero-seed": (
        "integrate --eq piv --alpha 0 --beta 1 --zero-branch plus --w2 0 --z0 0 --span 1", _TRAJECTORY,
    ),
    # a zero seed on the other branch, slope -beta
    "integrate-zero-seed-minus": (
        "integrate --eq piv --alpha 0 --beta 1 --zero-branch minus --w2 0.5 --z0 0 --span 0.5", _TRAJECTORY,
    ),
    # a raw jet given as signed zeros: w and w' enter as +0.0, so node 0 writes 0, not -0
    "integrate-raw-signed-zeros": (
        "integrate --eq piv --alpha 0 --beta 1 --w0 -0 --w1 -0 --w2 0.5 --z0 0 --span 0.5", _TRAJECTORY,
    ),
    "integrate-readme-xxix-pole": ("integrate --eq xxix --z0 0 --w0 1 --w1 1 --span 2", _TRAJECTORY),
    # the exact pole of 1/(1 - z) at the span's end, and that of piv's w = 1/z at
    # alpha = beta = 2: each series root lies past the end by its own error
    "integrate-xxix-span-end-pole": ("integrate --eq xxix --z0 0 --w0 1 --w1 1 --span 1", _TRAJECTORY),
    "integrate-piv-span-end-pole": (
        "integrate --eq piv --alpha 2 --beta 2 --z0 1 --w0 1 --w1 -1 --w2 2 --span -1", _TRAJECTORY,
    ),
    # a raw xvii jet on which the piv constraint's w ** 4 would overflow; its own
    # residual's products overflow to inf (and inf - inf to nan), and the run completes
    "integrate-xvii-overflowing-monitor": ("integrate --eq xvii --w1 1e200 --w2 1e200 --span 0.5", _TRAJECTORY),
    "zeros-readme-piv0": ("zeros --eq piv0 --w2 1 --z0 0 --span 1", _EVENTS),
    # a crossing refined on a backward run (d = -1), at a = -0.91943...
    "zeros-piv-backward-crossing": (
        "zeros --eq piv --alpha 1 --beta 1 --zero-branch plus --w2 0.5 --z0 0.5 --span -1.5", _EVENTS,
    ),
    # the README sweep cell alpha = 2, beta = 0: a tangential zero, refined as a root of w', at a = 0.12660...
    "zeros-readme-sweep-tangency": ("zeros --eq piv --alpha 2 --beta 0 --z0 -1 --w0 0.5 --span 2", _EVENTS),
    # one zeros output per other kind, each judged by that kind's zero-slope constant k:
    # w = z^2/4 touches zero tangentially at 0, slope 0 (k = 0)
    "zeros-xvii-tangency": ("zeros --eq xvii --z0 -2 --w0 1 --w1 -1 --span 4", _EVENTS),
    # a raw xxix jet off its residual: the crossing at 0.4828 is resolved through the drifted monitor, slope -1.0897
    "zeros-xxix-drifted-crossing": ("zeros --eq xxix --z0 0 --w0 0.5 --w1 -1 --w2 0 --span 2", _EVENTS),
    # w = z^2 - 1/4: zeros at -1/2 and 1/2 with slopes -+1, k = 1
    "zeros-xxxii-quadratic": ("zeros --eq xxxii --z0 -2 --w0 3.75 --w1 -4 --span 4", _EVENTS),
    # f's zero at -0.4767, judged on w = f^2
    "zeros-sqrt-piv0": ("zeros --eq sqrt-piv0 --z0 -1 --w0 0.5 --w1 -1 --span 2", _EVENTS),
    # interior piv0 tangencies near 0, with w'' = 8 and w'' = -8 there: each one event, plus_beta
    "zeros-piv0-tangency-convex": (
        "zeros --eq piv0 --z0 -0.6 --w0 1.4373088408634251 --w1 -4.801201106102903 --w2 8.549707995476755 "
        "--span 1.2",
        _EVENTS,
    ),
    "zeros-piv0-tangency-concave": (
        "zeros --eq piv0 --z0 -0.6 --w0 -1.5640963824861247 --w1 6.351753064673515 --w2 -25.634254203005327 "
        "--span 1.2",
        _EVENTS,
    ),
    "integrate-piv0-pole": ("integrate --eq piv0 --z0 -3 --w0 0.5 --span 6", _TRAJECTORY),
    "integrate-piv-w0-1000": ("integrate --eq piv --z0 0 --w0 1000 --w1 0 --span 1", _TRAJECTORY),
    "integrate-piv-w0-5000": ("integrate --eq piv --z0 0 --w0 5000 --w1 0 --span 1", _TRAJECTORY),
    # w' + 1 = 1.1e-16 puts the pole search's first iterate 3.6e16 ahead, where
    # the powers in u's tail overflow: that root is rejected, and the run ends
    # at the pole 0.35 ahead after 8 nodes
    "integrate-piv-span-1e20": (
        "integrate --eq piv --z0 0 --w0 4 --w1 -0.9999999999999999 --span 1e20", _TRAJECTORY,
    ),
    "integrate-sqrt-piv0-pole": ("integrate --eq sqrt-piv0 --z0 -3 --w0 0.7071067811865476 --span 6", _TRAJECTORY),
    "integrate-complex-piv": (
        "integrate --eq piv --alpha 0.5 --beta 0.25 --z0 0 --w0 0.7 --w1 -0.1 --w2 0.4 --span 1 "
        "--field complex --dir-re 0.955336489125606 --dir-im 0.29552020666133955",
        _TRAJECTORY,
    ),
    # the same data on a path aimed at the solution's pole near -1.2321 + 1.5804i:
    # the run ends at its series root, accepted by the pole bound in complex arithmetic
    "integrate-complex-piv-pole": (
        "integrate --eq piv --alpha 0.5 --beta 0.25 --z0 0 --w0 0.7 --w1 -0.1 --w2 0.4 --span 2.5 "
        "--field complex --dir-re -0.6148324884232922 --dir-im 0.7886577275214022",
        _TRAJECTORY,
    ),
    # the path passes the pole of 1/(1 - z) at distance 5e-3, outside the band
    # in which a series root ends a complex run
    "integrate-complex-xxix-past-pole": (
        "integrate --eq xxix --z0 0 --w0 1 --w1 1 --w2 2 --span 2 "
        "--field complex --dir-re 0.9999875000260416 --dir-im 0.004999979166692708",
        _TRAJECTORY,
    ),
    # an exact quadratic kind over a span past 2.59e15, the largest double's 20th
    # root: one step whose err_est takes no power of its zero tail, 2 nodes
    "integrate-xvii-span-1e16": ("integrate --eq xvii --w0 1 --span 1e16", _TRAJECTORY),
    # README's span of 1e100, one step of it
    "integrate-xvii-span-1e100": ("integrate --eq xvii --w0 1 --span 1e100", _TRAJECTORY),
    # w'' = 0.0 / (2 w) = -0.0 at w = -1, w' = 0, crossed forwards and backwards: the quadratic's
    # three-term evaluation starts from the +0.0 that zero coefficients above a_2 would leave
    "integrate-xvii-negative-zero-curvature": ("integrate --eq xvii --w0 -1 --w1 0 --span 1", _TRAJECTORY),
    "integrate-xvii-negative-zero-curvature-backward": ("integrate --eq xvii --w0 -1 --w1 0 --span -1", _TRAJECTORY),
    # the README xxxii quadratic on a complex path
    "integrate-complex-xxxii": (
        "integrate --eq xxxii --z0 0 --w0 2 --w1 3 --span 4 --field complex --dir-re 0.6 --dir-im 0.8", _TRAJECTORY,
    ),
    # refused specifications, each message naming the flag at fault
    "refused-integrate-w0-overflows": ("integrate --eq piv --w0 1e120 --span 1", ()),
    "refused-integrate-z0-inf": ("integrate --eq piv --z0 inf --w0 1 --w2 1 --span 1", ()),
    "refused-integrate-piv0-alpha": ("integrate --eq piv0 --alpha 1 --w0 1 --span 1", ()),
    "refused-integrate-xxxii-zero-seed": ("integrate --eq xxxii --zero-branch plus --span 1", ()),
    "refused-integrate-real-direction": ("integrate --eq piv --w0 1 --span 1 --dir-re 7", ()),
    "refused-verify-count-0": ("verify --suite sqrt --count 0", ()),
    "refused-sweep-span-inf": ("sweep --eq piv --z0 -1 --w0 0.5 --span inf", ()),
    "refused-sweep-grid-overflows": (
        "sweep --eq piv --z0 -1 --w0 0.5 --span 1 --alpha-min=-1e308 --alpha-max 1e308 --alpha-steps 3", (),
    ),
}  # fmt: skip

# a float as the outputs write it, with a decimal point or an exponent, and not part of a name
_FLOAT = re.compile(r"(?<![\w.])[-+]?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+)(?![\w.])")
# a JSON key, as the outputs write it
_KEY = re.compile(r'"([^"]+)":')


def _run(command: str, work: str, env: dict, name: str, files: tuple[str, ...]) -> dict[str, bytes | None]:
    """The artifacts of one command run in work: 'output/artifact' -> its bytes, None for a file not written."""
    run = subprocess.run(
        [sys.executable, "-m", "painleve4.cli", *command.split()], cwd=work, env=env, capture_output=True, check=False,
    )
    refusal = run.stderr if run.returncode == 1 else b""
    result = {f"{name}/stdout": b"exit %d\n" % run.returncode + run.stdout + refusal}
    for file in files:
        path = Path(work) / file
        result[f"{name}/{file}"] = path.read_bytes() if path.exists() else None
    return result


def outputs(tree: Path) -> tuple[dict[str, bytes | None], list[str]]:
    """Every artifact by name, stdout led by its exit code; and those that a rerun over longer files changed."""
    env = {**os.environ, "PYTHONPATH": str((tree / "src").resolve())}
    result, changed = {}, []
    for name, (command, files) in OUTPUTS.items():
        with tempfile.TemporaryDirectory() as work:
            first = _run(command, work, env, name, files)
            result.update(first)
            if not files:
                continue
            for file in files:
                path = Path(work) / file
                if path.exists():
                    path.write_bytes(path.read_bytes() * 2)
            again = _run(command, work, env, name, files)
            changed += [artifact for artifact in again if again[artifact] != first[artifact]]
    return result, changed


def digest(content: bytes | None) -> str:
    return "missing" if content is None else hashlib.sha256(content).hexdigest()


def _column(text: str, at: int) -> str:
    """The CSV column of the float at offset `at` of text, by the header's name."""
    before = text[text.rfind("\n", 0, at) + 1 : at]
    return next(csv.reader(io.StringIO(text)))[len(next(csv.reader([before]))) - 1 if before else 0]


def _where(artifact: str, text: str, at: int) -> str:
    """Where the float at offset `at` of text lies: its line, and its CSV column or the text before it on the line."""
    line = text.count("\n", 0, at) + 1
    if artifact.endswith(".csv"):
        return f"line {line}, column {_column(text, at)}"
    before = text[text.rfind("\n", 0, at) + 1 : at].strip().rstrip(":[,( ").strip()
    return f"line {line}" + (f", after {before[-40:]!r}" if before else "")


def measure(artifact: str, before: bytes | None, after: bytes | None) -> tuple[str, dict[str, float]]:
    """How far an artifact that differs moved: whether its shape held, with the largest relative difference, and
    that difference for each CSV column, JSON key or stdout line text whose floats moved, largest first.

    The relative difference of two floats x and y is |x - y| / max(|x|, |y|),
    0 where both are 0.  It is read only where the shape held, so that the
    floats pair up in order; where the shape changed, no field is listed.
    """
    if before is None or after is None:
        return "shape changed: written on one side only", {}
    old, new = before.decode("utf-8"), after.decode("utf-8")
    old_shape, new_shape = _FLOAT.sub("#", old).splitlines(), _FLOAT.sub("#", new).splitlines()
    if old_shape != new_shape:
        line = next((i for i, (a, b) in enumerate(zip(old_shape, new_shape)) if a != b), min(map(len, (old_shape, new_shape))))
        return f"shape changed from line {line + 1}", {}
    worst, at, fields = 0.0, None, {}
    for x, m in zip(_FLOAT.finditer(old), _FLOAT.finditer(new)):
        a, b = float(x.group()), float(m.group())
        if a != b:
            rel, field = abs(a - b) / max(abs(a), abs(b)), _field(artifact, new, m.start())
            fields[field] = max(fields.get(field, 0.0), rel)
            if rel > worst:
                worst, at = rel, m.start()
    where = "" if at is None else f" ({_where(artifact, new, at)})"
    return f"shape held; largest relative difference {worst:.2g}{where}", dict(sorted(fields.items(), key=lambda item: -item[1]))


def movement(artifact: str, before: bytes | None, after: bytes | None) -> str:
    """The first part of `measure`: whether the shape held, and the largest relative difference."""
    return measure(artifact, before, after)[0]


def _field(artifact: str, text: str, at: int) -> str:
    """What the float at offset `at` of text is: its CSV column, its JSON key, or the text before it on its line."""
    if artifact.endswith(".csv"):
        return _column(text, at)
    if artifact.endswith(".json"):
        keys = _KEY.findall(text, 0, at)
        return keys[-1] if keys else "(no key)"
    return _FLOAT.sub("#", text[text.rfind("\n", 0, at) + 1 : at]).strip().rstrip(":[,( ")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trees", nargs="+", type=Path, metavar="TREE", help="one or two source trees, each with src/")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one tree, or two to compare")
    runs = [outputs(tree) for tree in args.trees]
    if len(runs) == 1:
        for artifact, content in runs[0][0].items():
            print(f"{digest(content)}  {artifact}")
        return _report_reruns(runs)
    (before, _), (after, _) = runs
    differing = [artifact for artifact in before if before[artifact] != after[artifact]]
    for artifact in before:
        if artifact in differing:
            verdict, fields = measure(artifact, before[artifact], after[artifact])
            print(f"differs    {artifact}  {verdict}")
            if fields:
                print("           by field: " + ", ".join(f"{field} {rel:.2g}" for field, rel in fields.items()))
        else:
            print(f"identical  {artifact}")
    print(f"{len(before) - len(differing)} of {len(before)} identical")
    reruns_differ = _report_reruns(runs)
    return 1 if differing or reruns_differ else 0


def _report_reruns(runs) -> int:
    """One line per tree: how many rerun artifacts equal their first run, then each that does not; 1 if any."""
    rerun = sum(len(files) + 1 for _, files in OUTPUTS.values() if files)
    for k, (_, changed) in enumerate(runs, 1):
        tree = f" (tree {k})" if len(runs) > 1 else ""
        print(f"rerun over longer files{tree}: {rerun - len(changed)} of {rerun} identical to the first run")
        for artifact in changed:
            print(f"rerun differs{tree}  {artifact}")
    return 1 if any(changed for _, changed in runs) else 0


if __name__ == "__main__":
    sys.exit(main())
