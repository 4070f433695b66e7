#!/usr/bin/env python3
"""Pilot calibration for the simulation gate sizes.

The z-gates hold their false-alarm rate at any replica count; what the
count buys is power. For a per-replica coefficient of variation c, a
relative bias eps is detected at the 3-sigma gate with 95% power once

    n >= ((3 + 1.645) * c / eps)^2.

This script runs a small pilot per statistical check, estimates c, and
prints the replica counts needed for eps = 1% and 0.5%. The committed
configs use the rounded-up recommendations.

Usage: python scripts/calibrate_mc.py [--seed 7] [--pilot 400]
"""

import argparse
import math
import sys

from rwre_ldp import mc
from rwre_ldp.environment import JumpLaw, periodic

PER2 = periodic(
    [
        JumpLaw(b=1, probs=((-1, 0.2), (1, 0.8))),
        JumpLaw(b=1, probs=((-1, 0.6), (1, 0.4))),
    ]
)

Z_GATE = mc.GATE_SIGMAS
Z_POWER = 1.645  # one-sided 95%


def recommend(cv: float, eps: float) -> int:
    return math.ceil(((Z_GATE + Z_POWER) * cv / eps) ** 2)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--pilot", type=int, default=400, help="pilot replica count")
    args = ap.parse_args()

    report = mc.run_standard_checks(
        PER2,
        args.seed,
        mc.McParams(r=-0.3, n_steps=4000, n_walkers=args.pilot, mgf_walkers=4 * args.pilot,
                    level=8),
    )

    # replica counts actually used per check in this pilot
    sizes = {
        "empirical-velocity": args.pilot,
        "passage-lln": args.pilot,
        "mgf-match": 4 * args.pilot,
        "moment-envelope": 4 * args.pilot,
        "tilted-drift": args.pilot,
    }

    print(f"pilot: {args.pilot} replicas, seed {args.seed}")
    print(f"{'check':<22s} {'cv/replica':>12s} {'n @ 1%':>10s} {'n @ 0.5%':>10s}")
    for chk in report.checks:
        if chk.se == 0.0 or chk.name not in sizes:
            print(f"{chk.name:<22s} {'exact':>12s} {'-':>10s} {'-':>10s}")
            continue
        cv = chk.se * math.sqrt(sizes[chk.name]) / abs(chk.expected)
        print(f"{chk.name:<22s} {cv:12.3f} {recommend(cv, 0.01):>10d} "
              f"{recommend(cv, 0.005):>10d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
