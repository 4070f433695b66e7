"""Correctness gate: check a pass's artifacts against independent routes.

Usage: ``python gate.py --dir D`` (a directory a worker pass wrote); prints
one JSON object. Tasks are checked in up to two processes.

Every value a task returns is checked outside the timed region against a
route the repository keeps apart from the pipeline under test, with the
tolerances ``tests/test_acceptance.py`` pins:

- rate points: ``level2.minimize_entropy`` (1e-5) inside
  ``level2.drift_range``, +inf outside it; homogeneous laws against
  ``rate.cramer_oracle`` (1e-6);
- growth rates of homogeneous laws: ``passage.char_poly_roots`` (1e-6);
  unit-jump direction gaps: constant within 1e-8, as the skew identity says;
  other growth rates: finite, nondecreasing, convex and under the
  ellipticity bound;
- level2-min values: ``rate.rate`` at the same drift (1e-5);
- tilt reports: row defect 1e-12; slope, speed, drift and density mean
  against each other (1e-5 to 1e-12, as ``tests/test_tilt.py`` pins); growth
  rate against the entropy identity (1e-6) and, for unit jumps, against a
  Moebius-map route of its own (1e-6);
- the CLI's own exit codes and, for mc-verify, its 3-sigma z-gates.

A task that exits nonzero or raises counts all of its values as failed.
Each failure is matched against the defects recorded in perfbench/NOTES.md;
``unexplained`` counts the failures that match none of them.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
from rwre_ldp import level2
from rwre_ldp.environment import env_from_json
from rwre_ldp.passage import char_poly_roots
from rwre_ldp.rate import cramer_oracle, rate

from workloads import value_count

SATURATED = "saturated_outside_domain"
RECURSION = "theta_recursion_4BL_gt_256"
UNCAUGHT = "numeric_errors_omit_recursion"


def _rows(path: Path) -> list[dict]:
    """CSV artifact rows as dicts; float() reads the "inf" and "nan" the
    writers print for non-finite values, in CSV and JSON alike."""
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


class Checker:
    def __init__(self, env):
        self.env = env
        self.drange = level2.drift_range(env)

    def rate_value(self, xi: float, value: float) -> str | None:
        """None when the rate value checks out, else the failure reason."""
        lo, hi = self.drange
        if xi < lo - 1e-9 or xi > hi + 1e-9:
            if value == math.inf:
                return None
            return f"{SATURATED}: I({xi:g}) = {value:.6g} outside drift range [{lo:g}, {hi:g}]"
        if self.env.kind == "homogeneous":
            ref = cramer_oracle(self.env.laws[0], xi)
            tol = 1e-6
        else:
            res = level2.minimize_entropy(self.env, xi, tol=1e-10)
            if not res.converged:
                return f"level-2 oracle did not converge at xi={xi:g}"
            ref, tol = res.value, 1e-5
        if abs(value - ref) <= tol:
            return None
        return f"I({xi:g}) = {value!r}, reference {ref!r}"


def _growth_shape(rs, lams, env) -> list[str | None]:
    """Finite, nondecreasing, convex and below -(log delta + r)."""
    out = []
    for k, (r, v) in enumerate(zip(rs, lams)):
        bad = None
        if not math.isfinite(v) or v > -(math.log(env.delta) + r) + 1e-9:
            bad = f"lambda({r:g}) = {v!r} not finite or above its bound"
        elif k > 0 and v < lams[k - 1] - 1e-9:
            bad = f"lambda decreases at r={r:g}"
        elif 0 < k < len(rs) - 1:
            s01 = (v - lams[k - 1]) / (r - rs[k - 1])
            s12 = (lams[k + 1] - v) / (rs[k + 1] - r)
            if s12 < s01 - 1e-8:
                bad = f"lambda not convex at r={r:g}"
        out.append(bad)
    return out


def _unit_jump_gap(env) -> float:
    """lambda_bar - lambda for unit jumps: the mean log odds of a backtrack."""
    return sum(math.log(law.prob(-1) / law.prob(1)) for law in env.laws) / len(env.laws)


def _unit_jump_lambda(env, r: float) -> float:
    """Growth rate of a unit-jump periodic law, computed apart from the
    package: the passage MGFs zeta(x) = p e^r / (1 - q e^r zeta(x-1)) are a
    chain of Moebius maps, whose composition over one period has the
    minimal fixed point as its dominant eigenvector."""
    e = math.exp(r)
    ab = [(law.prob(1) * e, law.prob(-1) * e) for law in env.laws]
    m = np.eye(2)
    for a, b in ab:
        m = np.array([[0.0, a], [-b, 1.0]]) @ m
        m /= np.abs(m).max()
    w, v = np.linalg.eig(m)
    k = int(np.argmax(np.abs(w)))
    z = float(np.real(v[0, k] / v[1, k]))
    logs = []
    for a, b in ab:
        z = a / (1.0 - b * z)
        logs.append(math.log(z))
    return math.fsum(logs) / len(logs)


def _tilt_report(env, rep: dict) -> list[str | None]:
    """Five values, each against a second route, at the tolerances
    tests/test_tilt.py pins: the kernel's row sums, the slope's finite
    difference against its chain value, the speed and drift against the
    slope, the invariant density's mean against the speed, and the growth
    rate against the entropy identity and, for unit jumps, against
    _unit_jump_lambda. The stationary vector, the density profile's
    entries and the corrector span have no second route here."""
    r, slope, speed = float(rep["r"]), rep["slope"], float(rep["speed"])
    value = float(slope["value"])
    kernel = None if float(rep["row_defect"]) <= 1e-12 else f"row defect {rep['row_defect']}"
    fd_gap = abs(float(slope["fd"]) - float(slope["chain"]))
    slope_ok = fd_gap <= 1e-5 * max(1.0, abs(value)) and value == float(slope["chain"])
    slope_bad = None if slope_ok else f"slope fd {slope['fd']!r} vs chain {slope['chain']!r}"
    speed_ok = (abs(speed * value - 1.0) <= 1e-10
                and abs(float(rep["drift"]) - speed) <= 1e-10 * speed)
    speed_bad = None if speed_ok else f"speed {speed!r}, drift {rep['drift']!r}, slope {value!r}"
    mean = float(rep["invariant_density"]["mean"])
    dens_bad = (None if abs(mean - 1.0 / speed) <= 1e-12
                else f"density mean {mean!r}, 1/speed {1.0 / speed!r}")
    lam = float(rep["growth_rate"])
    lam_bad = None
    if abs(float(rep["entropy_identity_residual"])) > 1e-6:
        lam_bad = f"entropy identity residual {rep['entropy_identity_residual']}"
    elif env.b == 1 and abs(lam - (ref := _unit_jump_lambda(env, r))) > 1e-6:
        lam_bad = f"growth rate {lam!r} at r={r:g}, Moebius route gives {ref!r}"
    return [kernel, slope_bad, speed_bad, dens_bad, lam_bad]


def check_values(cfg: dict, out: Path) -> list[str | None]:
    """One entry per value: None if it passed, else why it failed."""
    task = cfg["task"]
    env = env_from_json(cfg["environment"])
    if task == "rate-curve":
        chk = Checker(env)
        return [chk.rate_value(float(r["xi"]), float(r["I"])) for r in _rows(out / "rate_curve.csv")]
    if task == "symmetry-check":
        chk = Checker(env)
        rows = json.loads((out / "symmetry_check.json").read_text())["rows"]
        res = []
        for r in rows:
            xi = float(r["xi"])
            res.append(chk.rate_value(xi, float(r["rate_right"])))
            res.append(chk.rate_value(-xi, float(r["rate_left"])))
        return res
    if task == "lambda-curve":
        rows = _rows(out / "lambda_curve.csv")
        rs = [float(r["r"]) for r in rows]
        lam = [float(r["lambda"]) for r in rows]
        lam_bar = [float(r["lambda_bar"]) for r in rows]
        res = []
        gap = _unit_jump_gap(env) if env.b == 1 else None
        for r, a, b, sa, sb, conv in zip(rs, lam, lam_bar, _growth_shape(rs, lam, env),
                                         _growth_shape(rs, lam_bar, env),
                                         (row["converged"] for row in rows)):
            g = None
            if conv != "1":
                g = f"not converged at r={r:g}"
            elif gap is not None and abs((b - a) - gap) > 1e-8:
                g = f"direction gap {b - a!r} at r={r:g}, skew identity gives {gap!r}"
            res += [sa or g, sb or g]
        return res
    if task == "counterexample":
        rows = _rows(out / "counterexample.csv")
        rs = [float(r["r"]) for r in rows]
        lam = [float(r["lambda"]) for r in rows]
        lam_bar = [float(r["lambda_bar"]) for r in rows]
        res = []
        if env.kind == "homogeneous":
            for r, a, b in zip(rs, lam, lam_bar):
                roots = char_poly_roots(env, r)
                res.append(None if abs(a - roots.lambda_right) <= 1e-6
                           else f"lambda({r:g}) = {a!r}, polynomial root gives {roots.lambda_right!r}")
                res.append(None if abs(b - roots.lambda_left) <= 1e-6
                           else f"lambda_bar({r:g}) = {b!r}, polynomial root gives {roots.lambda_left!r}")
        else:
            for sa, sb in zip(_growth_shape(rs, lam, env), _growth_shape(rs, lam_bar, env)):
                res += [sa, sb]
        if "control_environment" in cfg:
            var = float(json.loads((out / "counterexample.json").read_text())["control_variation"])
            res.append(None if var <= 1e-8 else f"control direction gap varies by {var:g}")
        return res
    if task == "tilt-report":
        return _tilt_report(env, json.loads((out / "tilt_report.json").read_text()))
    if task == "level2-min":
        rep = json.loads((out / "minimize_report.json").read_text())
        xi, value = float(rep["xi"]), float(rep["value"])
        ref = rate(env, xi).value
        ok = rep["converged"] and abs(value - ref) <= 1e-5
        return [None if ok else f"level-2 minimum {value!r} at xi={xi:g}, rate gives {ref!r}"]
    if task == "mc-verify":
        lines = (out / "mc_report.jsonl").read_text().splitlines()[1:]
        rows = [json.loads(ln) for ln in lines]
        res = [None if r["passed"] else f"{r['name']} z={r['z']}" for r in rows]
        return res + ["check missing"] * (6 - len(res))
    raise ValueError(f"unknown task {task!r}")


def _explained_exit(cfg: dict, out: Path, reasons: list[str | None]) -> bool:
    """An exit 4 from a rate curve is the saturated-cost defect when its
    err_flag rows all sit outside the drift range and every failing value
    is a finite cost there."""
    if cfg["task"] != "rate-curve" or not (out / "rate_curve.csv").exists():
        return False
    lo, hi = level2.drift_range(env_from_json(cfg["environment"]))
    flagged = [float(r["xi"]) for r in _rows(out / "rate_curve.csv") if r["err_flag"] == "1"]
    summary = json.loads((out / "rate_curve.json").read_text())
    return (
        bool(flagged)
        and all(xi < lo - 1e-9 or xi > hi + 1e-9 for xi in flagged)
        and summary["convex_ok"]
        and all(r is None or r.startswith(SATURATED) for r in reasons)
    )


def check_task(pass_dir: Path, rec: dict) -> dict:
    """The gate's verdict on one task of a pass. An error inside the gate
    itself, from a malformed artifact or a reference route, fails every
    value of the task and counts as unexplained, so the verdict is always
    printed."""
    cfg = json.loads((pass_dir / "configs" / f"{rec['name']}.json").read_text())
    n = value_count(cfg)
    entry = {"name": rec["name"], "values": n, "failed": 0, "defects": [], "unexplained": []}
    try:
        return _judge(cfg, pass_dir / "out" / rec["name"], rec, entry)
    except Exception as exc:
        msg = f"gate could not check the task: {type(exc).__name__}: {exc}"
        return {**entry, "failed": n, "defects": [], "unexplained": [msg], "reasons": [msg]}


def _judge(cfg: dict, out: Path, rec: dict, entry: dict) -> dict:
    n = entry["values"]
    env = cfg["environment"]
    if rec["exception"] is not None:
        entry["failed"] = n
        period = len(env["laws"])
        if rec["exception"] == "RecursionError" and env["B"] >= 2 and 4 * env["B"] * period > 256:
            entry["defects"] = [RECURSION, UNCAUGHT]
        else:
            entry["unexplained"].append(f"raised {rec['exception']}")
        return entry
    reasons = check_values(cfg, out)
    if len(reasons) != n:
        reasons = [f"expected {n} values, found {len(reasons)}"] * n
    failing = [r for r in reasons if r is not None]
    if rec["exit_code"] != 0:
        entry["failed"] = n
        if _explained_exit(cfg, out, reasons):
            entry["defects"] = [SATURATED]
        else:
            entry["unexplained"].append(f"exit code {rec['exit_code']}")
            entry["unexplained"] += [r for r in failing if not r.startswith(SATURATED)]
    else:
        entry["failed"] = len(failing)
        if any(r.startswith(SATURATED) for r in failing):
            entry["defects"] = [SATURATED]
        entry["unexplained"] += [r for r in failing if not r.startswith(SATURATED)]
    entry["reasons"] = failing
    return entry


def gate(pass_dir: Path) -> dict:
    result = json.loads((pass_dir / "result.json").read_text())
    with ProcessPoolExecutor(max_workers=min(2, len(os.sched_getaffinity(0)))) as pool:
        tasks = list(pool.map(check_task, [pass_dir] * len(result["tasks"]), result["tasks"]))
    by_defect: dict[str, int] = {}
    for t in tasks:
        for d in t["defects"]:
            by_defect[d] = by_defect.get(d, 0) + t["failed"]
    return {
        "attempted": sum(t["values"] for t in tasks),
        "failed": sum(t["failed"] for t in tasks),
        "unexplained": sum(len(t["unexplained"]) for t in tasks),
        "by_defect": by_defect,
        "tasks": tasks,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--dir", required=True)
    args = ap.parse_args()
    json.dump(gate(Path(args.dir)), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
