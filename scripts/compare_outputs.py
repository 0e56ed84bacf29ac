#!/usr/bin/env python3
"""Byte identity of a fixed list of CLI outputs, on one source tree or two.

Each output is one `painleve4` command, run by this interpreter in a fresh
process on the package under TREE/src, in an empty temporary directory.
Its artifacts are the files the command writes and its exit code with its
standard output (`stdout`), which is all that `verify` writes.

Usage:
    python scripts/compare_outputs.py TREE            one sha256 per artifact
    python scripts/compare_outputs.py PARENT CHANGE   identical or differs per artifact

With two trees, such as a `git archive` of the parent commit and the
working tree, the exit code is 1 when any artifact differs and 0 otherwise.
"""

import argparse
import hashlib
import os
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
    "integrate-readme-xxxii": ("integrate --eq xxxii --z0 0 --w0 2 --w1 3 --span 4", _TRAJECTORY),
    "integrate-readme-zero-seed": (
        "integrate --eq piv --alpha 0 --beta 1 --zero-branch plus --w2 0 --z0 0 --span 1", _TRAJECTORY,
    ),
    "integrate-readme-xxix-pole": ("integrate --eq xxix --z0 0 --w0 1 --w1 1 --span 2", _TRAJECTORY),
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
}  # fmt: skip


def digests(tree: Path) -> dict[str, str]:
    """'output/artifact' -> sha256 hex digest, or 'missing' for a file the command did not write."""
    env = {**os.environ, "PYTHONPATH": str((tree / "src").resolve())}
    result = {}
    for name, (command, files) in OUTPUTS.items():
        with tempfile.TemporaryDirectory() as work:
            run = subprocess.run(
                [sys.executable, "-m", "painleve4.cli", *command.split()],
                cwd=work, env=env, capture_output=True, check=False,
            )
            result[f"{name}/stdout"] = hashlib.sha256(b"exit %d\n" % run.returncode + run.stdout).hexdigest()
            for file in files:
                path = Path(work) / file
                result[f"{name}/{file}"] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "missing"
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trees", nargs="+", type=Path, metavar="TREE", help="one or two source trees, each with src/")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one tree, or two to compare")
    runs = [digests(tree) for tree in args.trees]
    if len(runs) == 1:
        for artifact, digest in runs[0].items():
            print(f"{digest}  {artifact}")
        return 0
    before, after = runs
    differing = [artifact for artifact in before if before[artifact] != after[artifact]]
    for artifact in before:
        print(f"{'differs' if artifact in differing else 'identical':9s}  {artifact}")
    print(f"{len(before) - len(differing)} of {len(before)} identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
