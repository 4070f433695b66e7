"""Batch front end: one JSON config, one task, deterministic artifacts.

Usage: ``rwre-ldp run config.json [--strict] [--out DIR] [--threads N]``.

Exit codes: 0 success (statistical warnings print but do not fail unless
--strict, which turns them into exit 1), 2 malformed config with a pointer
to the offending key, 3 numeric divergence (any `RwreError` but a config
error) with a `diagnostics.json` holding the error's class, message and task
and every attribute the error carries, 4 hard invariant violation.

Every artifact embeds the sha256 of the config bytes and the tool version,
and identical (config, seed) pairs produce identical bytes: floats print
with 17 significant digits in CSV and shortest round-trip form in JSON,
keys are sorted, and simulation streams are counter-based. Thread counts
change only wall time, never output: parallelism splits walker blocks whose
streams are indexed globally. Analytic tasks run single-threaded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, level2, mc
from .environment import Environment, env_from_json, offsets, parse_number
from .errors import ConfigError, RwreError, SlowConvergenceError
from .passage import lambda_curve, lyapunov_prime
from .rate import asymmetry_demo, rate_curve, symmetry_gaps
from .tilt import ansatz_measure, corrector, invariant_density, stationary_speed, tilted_chain

TASKS = (
    "lambda-curve",
    "rate-curve",
    "tilt-report",
    "level2-min",
    "mc-verify",
    "counterexample",
    "symmetry-check",
)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    task: str
    env: Environment
    grid: tuple[float, ...] | None
    r: float | None
    xi: float | None
    seed: int | None
    tolerance: float
    rc_tol: float
    r_values: tuple[float, ...]
    threshold: float
    control_env: Environment | None
    mc_params: mc.McParams
    out_dir: str
    config_sha: str


def _numbers(values, where: str) -> tuple[float, ...]:
    """A list of numbers as floats; a failing entry is named where[i]."""
    if not isinstance(values, (list, tuple)):
        raise ConfigError(where, "must be a list of numbers")
    return tuple(parse_number(v, f"{where}[{i}]") for i, v in enumerate(values))


def _parse_grid(d, where: str) -> tuple[float, ...]:
    if isinstance(d, (list, tuple)):
        if not d:
            raise ConfigError(where, "grid list is empty")
        return _numbers(d, where)
    if not isinstance(d, dict):
        raise ConfigError(where, "grid must be a list or {min, max, points}")
    try:
        lo, hi, n = float(d["min"]), float(d["max"]), int(d["points"])
    except (KeyError, ValueError, TypeError, OverflowError):
        raise ConfigError(where, "grid needs numeric min, max and integer points") from None
    for key, v in (("min", lo), ("max", hi)):
        if not math.isfinite(v):
            raise ConfigError(f"{where}.{key}", "must be a finite number")
    if n < 1:
        raise ConfigError(f"{where}.points", f"need at least 1 point, got {n}")
    if lo > hi:
        raise ConfigError(where, f"min {lo} exceeds max {hi}")
    return tuple(float(v) for v in np.linspace(lo, hi, n))


def _parse_mc(d, where: str) -> mc.McParams:
    if d is None:
        return mc.McParams()
    if not isinstance(d, dict):
        raise ConfigError(where, "mc block must be an object")
    kw = {}
    for key in ("n_steps", "n_walkers", "mgf_walkers", "level"):
        if key in d:
            kw[key] = parse_number(d[key], f"{where}.{key}", int)
            if kw[key] < 1:
                raise ConfigError(f"{where}.{key}", "must be positive")
    for key in ("gate", "r"):
        if key in d:
            kw[key] = parse_number(d[key], f"{where}.{key}")
    if "checks" in d:
        if not isinstance(d["checks"], list):
            raise ConfigError(f"{where}.checks", "must be a list of check names")
        checks = tuple(d["checks"])
        bad = [c for c in checks if c not in mc.STANDARD_CHECKS]
        if bad:
            raise ConfigError(f"{where}.checks", f"unknown checks {bad}")
        kw["checks"] = checks
    return mc.McParams(**kw)


def parse_config(raw: dict, config_sha: str) -> RunConfig:
    """Validate the schema; every failure names the offending key."""
    if not isinstance(raw, dict):
        raise ConfigError("config", "top level must be a JSON object")
    task = raw.get("task")
    if task not in TASKS:
        raise ConfigError("task", f"must be one of {', '.join(TASKS)}; got {task!r}")
    if "environment" not in raw:
        raise ConfigError("environment", "missing")
    env = env_from_json(raw["environment"], where="environment")

    grid = _parse_grid(raw["grid"], "grid") if "grid" in raw else None
    r = parse_number(raw["r"], "r") if "r" in raw else None
    xi = parse_number(raw["xi"], "xi") if "xi" in raw else None
    seed = parse_number(raw["seed"], "seed", int) if "seed" in raw else None
    tolerance = parse_number(raw.get("tolerance", 1e-10), "tolerance")
    if not tolerance > 0:
        raise ConfigError("tolerance", "must be positive")
    rc_tol = parse_number(raw.get("rc_tol", 1e-7), "rc_tol")
    if not rc_tol > 0:
        raise ConfigError("rc_tol", "must be positive")
    r_values = _numbers(raw.get("r_values", (-0.25, -0.5, -1.0, -2.0)), "r_values")
    if not r_values:
        raise ConfigError("r_values", "must be nonempty")
    threshold = parse_number(raw.get("threshold", 1e-3), "threshold")
    control_env = None
    if "control_environment" in raw:
        control_env = env_from_json(raw["control_environment"], where="control_environment")
        if control_env.kind == "iid":
            raise ConfigError("control_environment.type", "a sampled window cannot be a control")
    # every task but lambda-curve needs a finite class cycle
    if env.kind == "iid" and task != "lambda-curve":
        raise ConfigError("environment.type", f"task {task} needs a homogeneous or periodic "
                          "environment, not a sampled window")

    if task in ("lambda-curve", "rate-curve", "symmetry-check") and grid is None:
        raise ConfigError("grid", f"task {task} needs a grid")
    if task == "tilt-report" and r is None:
        raise ConfigError("r", "task tilt-report needs a tilt")
    if task == "level2-min" and xi is None:
        raise ConfigError("xi", "task level2-min needs a target drift")
    if task == "mc-verify" and seed is None:
        raise ConfigError("seed", "task mc-verify needs an explicit seed")

    return RunConfig(
        task=task,
        env=env,
        grid=grid,
        r=r,
        xi=xi,
        seed=seed,
        tolerance=tolerance,
        rc_tol=rc_tol,
        r_values=r_values,
        threshold=threshold,
        control_env=control_env,
        mc_params=_parse_mc(raw.get("mc"), "mc"),
        out_dir=str(raw.get("out_dir", "out")),
        config_sha=config_sha,
    )


# ---------------------------------------------------------------------------
# deterministic writers


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return "%.17g" % float(x)


def _jsonable(obj):
    """Recursively convert to plain JSON types; non-finite floats become
    strings so the files stay standard JSON."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        return f if math.isfinite(f) else str(f)
    if isinstance(obj, np.ndarray):
        if obj.dtype.kind == "f" and np.isfinite(obj).all():
            return obj.tolist()  # already plain floats, in nested lists
        return [_jsonable(v) for v in obj.tolist()]
    return obj


class _Writer:
    def __init__(self, cfg: RunConfig, out_dir: Path):
        self.sha = cfg.config_sha
        self.comment = f"# config_sha256={cfg.config_sha} version={__version__}"
        self.out = out_dir

    def _meta(self) -> dict:
        return {"config_sha256": self.sha, "version": __version__}

    def csv(self, name: str, header: list[str], rows: list) -> None:
        lines = [self.comment, ",".join(header)]
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        (self.out / name).write_text("\n".join(lines) + "\n")

    def json(self, name: str, obj: dict) -> None:
        body = {"_meta": self._meta()}
        body.update(obj)
        (self.out / name).write_text(json.dumps(_jsonable(body), sort_keys=True, indent=2) + "\n")

    def jsonl(self, name: str, records: list[dict]) -> None:
        lines = [json.dumps({"_meta": self._meta()}, sort_keys=True, separators=(",", ":"))]
        lines.extend(
            json.dumps(_jsonable(rec), sort_keys=True, separators=(",", ":"))
            for rec in records
        )
        (self.out / name).write_text("\n".join(lines) + "\n")

    def text(self, name: str, body: str) -> None:
        (self.out / name).write_text(self.comment + "\n" + body)


# ---------------------------------------------------------------------------
# task runners: each returns (warnings, hard_failures)


def _task_lambda_curve(cfg: RunConfig, w: _Writer):
    curve = lambda_curve(cfg.env, cfg.grid, tol=cfg.tolerance, rc_tol=cfg.rc_tol)
    rows = curve.rows()
    w.csv("lambda_curve.csv", ["r", "lambda", "lambda_bar", "converged", "n_used", "M_used"], rows)
    summary = {
        "monotone_ok": curve.monotone_ok,
        "convex_ok": curve.convex_ok,
        "bound_ok": curve.bound_ok,
        "points": len(rows),
    }
    rc = curve.rc
    summary["rc"] = {"bracket": list(rc.bracket), "value": rc.value, "predicate": rc.predicate}
    if rc.bracket_reflected is not None:  # a sampled window's reflection, searched apart
        lo, hi = rc.bracket_reflected
        summary["rc"].update(bracket_reflected=[lo, hi],
                             reflect_gap=abs(rc.value - 0.5 * (lo + hi)))
    w.json("lambda_curve.json", summary)
    hard = [
        f"lambda-curve invariant {name} violated"
        for name, ok in (
            ("monotone", curve.monotone_ok),
            ("convex", curve.convex_ok),
            ("upper-bound", curve.bound_ok),
        )
        if not ok
    ]
    return [], hard


def _task_rate_curve(cfg: RunConfig, w: _Writer):
    curve = rate_curve(cfg.env, cfg.grid, rc_tol=cfg.rc_tol)
    rows = []
    hard = []
    for res in curve.results:
        err = int(math.isfinite(res.value) and res.xi_residual > 1e-6)
        if err:
            hard.append(f"drift equation residual {res.xi_residual:g} at xi={res.xi:g}")
        rows.append([res.xi, res.value, res.r_star, res.branch, err])
    w.csv("rate_curve.csv", ["xi", "I", "r_star", "branch", "err_flag"], rows)
    rc = curve.rc  # the reflection's Lambda is Lambda(-s), with the same threshold
    w.json(
        "rate_curve.json",
        {
            "convex_ok": curve.convex_ok,
            "min_value": curve.min_value,
            "argmin": curve.argmin,
            "rc": {"bracket": list(rc.bracket), "value": rc.value},
            "xi_critical": curve.xi_critical.value,
        },
    )
    if not curve.convex_ok:
        hard.append("rate curve is not convex along the finite grid")
    return [], hard


def _task_tilt_report(cfg: RunConfig, w: _Writer):
    env, r = cfg.env, cfg.r
    chain = tilted_chain(env, r)
    lp = lyapunov_prime(env, r, stationary_speed(chain))
    cor = corrector(chain)
    dens = invariant_density(chain)
    ident = level2.entropy(ansatz_measure(chain)) - (r - chain.drift * chain.lam)
    report = {
        "r": r,
        "row_defect": chain.row_defect,
        "stationary": chain.stat,
        "speed": dens.speed,
        "slope": {
            "value": lp.value, "fd": lp.fd_value, "chain": lp.value,
            "gap": abs(lp.fd_value - lp.value),
        },
        "corrector_span": cor.span,
        "invariant_density": {"phi": dens.phi, "gap": dens.gap, "mean": float(np.mean(dens.phi))},
        "entropy_identity_residual": ident,
        "drift": chain.drift,
        "growth_rate": chain.lam,
    }
    w.json("tilt_report.json", report)
    hard = []
    if chain.row_defect > 1e-9:
        hard.append(f"tilted kernel row defect {chain.row_defect:g} exceeds 1e-9")
    if abs(ident) > 1e-8:
        hard.append(f"entropy identity residual {ident:g} exceeds 1e-8")
    if not dens.floor_ok:
        hard.append("invariant density dipped below the ellipticity floor")
    return [], hard


def _task_level2_min(cfg: RunConfig, w: _Writer):
    res = level2.minimize_entropy(cfg.env, cfg.xi, tol=cfg.tolerance)
    if not res.converged:
        raise SlowConvergenceError(
            "entropy minimization did not converge",
            diagnostics={
                "grad_map_norm": res.grad_map_norm,
                "constraint_residual": res.constraint_residual,
                "iterations": res.iterations,
            },
        )
    offs = offsets(cfg.env.b)
    rows = [
        [i, int(z), res.measure.weights[i, j]]
        for i in range(res.measure.weights.shape[0])
        for j, z in enumerate(offs)
    ]
    w.csv("pair_measure.csv", ["site_class", "offset", "weight"], rows)
    w.json(
        "minimize_report.json",
        {
            "xi": cfg.xi,
            "value": res.value,
            "iterations": res.iterations,
            "converged": res.converged,
            "floor": res.floor,
            "residuals": {
                "gradient_map": res.grad_map_norm,
                "constraints": res.constraint_residual,
                "drift_gap": abs(res.measure.drift() - cfg.xi),
                "mass_gap": abs(res.measure.total() - 1.0),
                "shift_defect": res.measure.shift_defect(),
            },
        },
    )
    return [], []


def _task_mc_verify(cfg: RunConfig, w: _Writer, threads: int):
    rep = mc.run_standard_checks(cfg.env, cfg.seed, cfg.mc_params, threads)
    w.jsonl("mc_report.jsonl", [c.row() for c in rep.checks])
    summary = {k: v for k, v in rep.to_json().items() if k != "checks"}
    w.json("mc_summary.json", summary)
    warnings, hard = [], []
    for c in rep.checks:
        if c.passed:
            continue
        if c.se == 0.0:
            hard.append(f"deterministic check {c.name} failed")
        else:
            warnings.append(f"statistical gate failed: {c.name} z={c.z:.2f}")
    return warnings, hard


def _direction_gap_rows(demo) -> list[list]:
    return [
        [r, lam, lam_bar, gap]
        for r, lam, lam_bar, gap in zip(demo.rs, demo.lambdas, demo.lambdas_bar, demo.gaps)
    ]


def _task_counterexample(cfg: RunConfig, w: _Writer):
    demo = asymmetry_demo(cfg.env, cfg.r_values)
    rows = _direction_gap_rows(demo)
    w.csv("counterexample.csv", ["r", "lambda", "lambda_bar", "gap"], rows)
    lines = [
        "Direction dependence of the passage-time growth rate",
        "",
        f"{'r':>10s} {'lambda':>22s} {'lambda_bar':>22s} {'gap':>22s}",
    ]
    for r, lam, lam_bar, gap in rows:
        lines.append(f"{r:>10.4f} {lam:>22.15f} {lam_bar:>22.15f} {gap:>22.15f}")
    lines.append("")
    lines.append(f"gap variation over the grid: {demo.variation:.15f}")
    undefined = "direction gap is finite at fewer than two tilts; its variation needs two"
    verdict = demo.variation > cfg.threshold
    lines.append(
        f"verdict: undefined: {undefined}" if math.isnan(demo.variation)
        else "verdict: the direction gap DEPENDS on the tilt" if verdict
        else "verdict: no tilt dependence detected at this resolution"
    )
    hard = []
    if math.isnan(demo.variation):
        hard.append(undefined)
    elif not verdict:
        hard.append(
            f"direction-gap variation {demo.variation:g} below threshold {cfg.threshold:g}"
        )
    summary = {"variation": demo.variation, "threshold": cfg.threshold, "varies": verdict}
    if cfg.control_env is not None:
        control = asymmetry_demo(cfg.control_env, cfg.r_values)
        lines.append("")
        lines.append("control environment (unit jumps: gap must be constant):")
        for r, lam, lam_bar, gap in _direction_gap_rows(control):
            lines.append(f"{r:>10.4f} {lam:>22.15f} {lam_bar:>22.15f} {gap:>22.15f}")
        lines.append(f"control gap variation: {control.variation:.15g}")
        summary["control_variation"] = control.variation
        if math.isnan(control.variation):
            hard.append("control direction gap is finite at fewer than two tilts")
        elif control.variation > 1e-8:
            hard.append(
                f"control direction gap varies by {control.variation:g}; expected constant"
            )
    w.text("counterexample.txt", "\n".join(lines) + "\n")
    w.json("counterexample.json", summary)
    return [], hard


def _task_symmetry_check(cfg: RunConfig, w: _Writer):
    env = cfg.env
    if not all(xi > 0 for xi in cfg.grid):
        raise ConfigError("grid", "symmetry-check needs strictly positive speeds")
    gaps = symmetry_gaps(env, cfg.grid)
    rows = [
        {
            "xi": g.xi,
            "rate_right": g.rate_right,
            "rate_left": g.rate_left,
            "gap": g.gap,
            "predicted": g.predicted,
            "defect": g.defect,
        }
        for g in gaps
    ]
    # a running maximum from 0.0: a nan defect never replaces it
    max_defect = max([0.0, *(g.defect for g in gaps)])
    is_nn = env.b == 1
    w.json(
        "symmetry_check.json",
        {
            "unit_jumps_only": is_nn,
            "log_odds_mean": gaps[0].log_odds,
            "max_defect": max_defect,
            "tolerance": cfg.tolerance,
            "rows": rows,
        },
    )
    hard = []
    if is_nn and max_defect > max(cfg.tolerance, 1e-10):
        hard.append(
            f"skew identity defect {max_defect:g} exceeds {max(cfg.tolerance, 1e-10):g} "
            "despite unit jumps"
        )
    return [], hard


# ---------------------------------------------------------------------------
# driver


def run(
    config_path: str | Path,
    strict: bool = False,
    out_dir: str | Path | None = None,
    threads: int = 1,
) -> int:
    """Execute one config; returns the process exit code."""
    try:
        raw_bytes = Path(config_path).read_bytes()
    except OSError as e:
        print(f"config error: cannot read {config_path}: {e}", file=sys.stderr)
        return 2
    sha = hashlib.sha256(raw_bytes).hexdigest()
    try:
        raw = json.loads(raw_bytes)
    except json.JSONDecodeError as e:
        print(f"config error: {config_path} is not valid JSON: {e}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(raw, sha)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2

    out = Path(out_dir) if out_dir is not None else Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    w = _Writer(cfg, out)

    if threads > 1 and cfg.task != "mc-verify":
        print(
            "note: --threads applies to simulation tasks only; analytic tasks "
            "run serially to keep outputs byte-deterministic",
            file=sys.stderr,
        )

    try:
        if cfg.task == "lambda-curve":
            warnings, hard = _task_lambda_curve(cfg, w)
        elif cfg.task == "rate-curve":
            warnings, hard = _task_rate_curve(cfg, w)
        elif cfg.task == "tilt-report":
            warnings, hard = _task_tilt_report(cfg, w)
        elif cfg.task == "level2-min":
            warnings, hard = _task_level2_min(cfg, w)
        elif cfg.task == "mc-verify":
            warnings, hard = _task_mc_verify(cfg, w, threads)
        elif cfg.task == "counterexample":
            warnings, hard = _task_counterexample(cfg, w)
        else:
            warnings, hard = _task_symmetry_check(cfg, w)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except RwreError as e:
        # the attributes an error class sets in its constructor are its diagnostics
        w.json("diagnostics.json",
               {"error": type(e).__name__, "message": str(e), "task": cfg.task, **vars(e)})
        print(f"numeric divergence: {e}", file=sys.stderr)
        return 3

    for msg in warnings:
        print(f"warning: {msg}", file=sys.stderr)
    for msg in hard:
        print(f"invariant violation: {msg}", file=sys.stderr)
    if hard:
        return 4
    if warnings and strict:
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="rwre-ldp",
        description="Quenched large-deviation computations for walks in random environments",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute one task from a JSON config")
    runp.add_argument("config", help="path to the JSON run configuration")
    runp.add_argument("--strict", action="store_true",
                      help="treat statistical gate failures as errors (exit 1)")
    runp.add_argument("--out", default=None, help="output directory (overrides config)")
    runp.add_argument("--threads", type=int, default=1,
                      help="worker threads for simulation tasks")
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be >= 1")
    return run(args.config, strict=args.strict, out_dir=args.out, threads=args.threads)


if __name__ == "__main__":
    sys.exit(main())
