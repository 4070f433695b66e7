#!/usr/bin/env python3
"""Print the position-level cost profile of an environment.

Reads the same environment schema the batch runner uses, solves a speed
grid in one lockstep pass (`rate_grid`), and prints speed, cost, the
maximizing tilt, and the branch taken.
For homogeneous input the shared-environment dual value is printed next
to each row as an independent cross-check.

Usage: python scripts/rate_profile.py configs/rate_curve_sym.json
       python scripts/rate_profile.py ENV.json --min 0 --max 0.9 --points 10
"""

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from rwre_ldp.environment import env_from_json
from rwre_ldp.rate import cramer_oracle, rate_grid


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("config", help="run config or bare environment JSON")
    ap.add_argument("--min", type=float, default=0.0)
    ap.add_argument("--max", type=float, default=None)
    ap.add_argument("--points", type=int, default=11)
    args = ap.parse_args()

    raw = json.loads(Path(args.config).read_text())
    env_blob = raw.get("environment", raw)
    env = env_from_json(env_blob)
    hi = args.max if args.max is not None else 0.95 * env.b
    grid = np.linspace(args.min, hi, args.points)

    dual = env.kind == "homogeneous"
    header = f"{'speed':>8s} {'cost':>20s} {'tilt*':>14s} {'branch':>10s}"
    if dual:
        header += f" {'dual':>20s} {'diff':>10s}"
    print(header)
    worst = 0.0
    for xi, res in zip(grid, rate_grid(env, grid)):
        line = f"{xi:8.3f} {res.value:20.12f} "
        line += f"{res.r_star:14.6f} " if math.isfinite(res.r_star) else f"{'-':>14s} "
        line += f"{res.branch:>10s}"
        if dual:
            ref = cramer_oracle(env.laws[0], float(xi))
            diff = abs(res.value - ref) if math.isfinite(ref) else 0.0
            worst = max(worst, diff)
            line += f" {ref:20.12f} {diff:10.2e}"
        print(line)
    if dual:
        print(f"\nworst dual gap: {worst:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
