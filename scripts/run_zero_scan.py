#!/usr/bin/env python3
"""Zero-structure experiment for the beta = 0 equation.

Integrates a family of seeds across a window, locates every zero of w, and
tabulates slope and curvature at each one.  At beta = 0 an isolated zero
must have vanishing slope and nonvanishing curvature; the table makes that
visible at a glance.

Usage: python scripts/run_zero_scan.py [--seeds 20] [--out zero_scan.json]
"""

import argparse
import json
import sys
from pathlib import Path

from painleve4 import (
    EquationKind,
    InitialData,
    Params,
    check_curvature_theorem,
    integrate,
    locate_zeros,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--w0-min", type=float, default=0.1)
    parser.add_argument("--w0-max", type=float, default=1.0)
    parser.add_argument("--z0", type=float, default=-3.0)
    parser.add_argument("--span", type=float, default=6.0)
    parser.add_argument("--out", default="zero_scan.json")
    args = parser.parse_args(argv)

    rows = []
    n_zeros = 0
    for i in range(args.seeds):
        frac = i / max(args.seeds - 1, 1)
        w0 = args.w0_min + (args.w0_max - args.w0_min) * frac
        traj = integrate(EquationKind.PIV0, Params(), InitialData.nonzero(args.z0, w0, 0.0), args.span)
        events = locate_zeros(traj)
        report = check_curvature_theorem(events, traj)
        n_zeros += len(events)
        rows.append(
            {
                "w0": w0,
                "status": traj.status.value,
                "reached_z": traj.nodes[-1].jet.z,
                "zeros": [
                    {"a": e.a, "slope": e.slope, "curvature": e.curvature}
                    for e in events
                ],
                "violations": len(report.violations),
            }
        )
        marks = " ".join(f"a={e.a:+.4f} w''={e.curvature:+.3f}" for e in events) or "-"
        print(f"w0={w0:.3f}  {traj.status.value:14s} reached z={rows[-1]['reached_z']:+.3f}  {marks}")

    violations = sum(r["violations"] for r in rows)
    print(f"\n{n_zeros} zeros across {args.seeds} seeds, {violations} curvature violations")
    Path(args.out).write_text(json.dumps(rows, indent=2), encoding="utf-8")
    print(f"wrote {args.out}")
    return 0 if violations == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
