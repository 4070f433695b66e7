"""rwre-ldp benchmark: CLI workloads timed from outside, plus a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {rate_sweep,per_tilt_mc}
        --seed N --seconds S --trace {0,1}

Each pass of a workload is a fresh interpreter (perfbench/worker.py) that
generates the workload's task configs from the seed and runs every task
through ``rwre_ldp.cli.run``, the public batch entry point, from the
checkout's ``src``. Passes repeat until ``--seconds`` of passes have run,
and at least three of the kind the run reports.

End-to-end metrics (``--trace 0``):

- ``setup_s``: interpreter start to the start of the first task, i.e.
  ``import rwre_ldp.cli`` plus config generation; the median over one
  set-up-only start and every pass;
- ``wall_s``: the sum over tasks of each task's mean ``cli.run``
  duration across passes. On a shared host the speed of the CPU drifts
  over minutes, and the mean over every pass steadies the figure more
  than the median does (perfbench/NOTES.md);
- ``peak_rss_mb``: the peak RSS of the pass process, median over passes.

``fail_frac`` is ``failed / attempted`` from the correctness gate
(perfbench/gate.py), which runs after the passes, outside the timed region.
``correct`` is false when any failure matches none of the defects recorded
in perfbench/NOTES.md, or when two passes of the same seed wrote artifacts
that differ in a single byte.

With ``--trace 1`` two untraced passes alternate with traced ones, and
traced passes follow until there are three; the per-layer metrics are
medians over the traced passes (perfbench/tracing.py), and
``trace.overhead_s`` is the traced minus the untraced ``wall_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The lines above it
are a human summary and a ``run_record:`` line with the machine, versions
and every task's config sha256, exit code and wall time.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_ONLY_STARTS = 1
MIN_PASSES = 3  # of the kind the run reports: untraced, or traced with --trace 1
MIN_UNTRACED_WITH_TRACE = 2  # the baseline of trace.overhead_s
BUDGET_S = 170.0  # every run must exit within 180 s


class BenchError(Exception):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    return env


def _spawn(args: list[str], log: Path, deadline: float) -> float:
    """Run a child python to completion; returns time.monotonic() at spawn."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time budget exhausted")
    t_spawn = time.monotonic()
    with open(log, "w") as fh:
        try:
            proc = subprocess.run([sys.executable, *args], stdout=fh, stderr=subprocess.STDOUT,
                                  env=_child_env(), cwd=ROOT, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{args[0]} did not finish within the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(args)} exited {proc.returncode}; see {log}")
    return t_spawn


def run_pass(workload: str, seed: int, pass_dir: Path, trace: bool, setup_only: bool,
             deadline: float) -> dict:
    pass_dir.mkdir(parents=True)
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
            "--dir", str(pass_dir)]
    if trace:
        args.append("--trace")
    if setup_only:
        args.append("--setup-only")
    t_spawn = _spawn(args, pass_dir / "worker.log", deadline)
    res = json.loads((pass_dir / "result.json").read_text())
    res["setup_s"] = res["first_task_at"] - t_spawn
    if res["rwre_ldp_path"] != str((SRC / "rwre_ldp").resolve()):
        raise BenchError(f"imported rwre_ldp from {res['rwre_ldp_path']}, not the checkout")
    return res


def _artifact_mismatches(a: Path, b: Path) -> list[str]:
    """Task names whose artifact directories differ in any byte."""
    bad = []
    for task_dir in sorted((a / "out").iterdir()):
        other = b / "out" / task_dir.name
        names = sorted(p.name for p in task_dir.iterdir())
        if not other.is_dir() or names != sorted(p.name for p in other.iterdir()):
            bad.append(task_dir.name)
            continue
        _, mismatch, errors = filecmp.cmpfiles(task_dir, other, names, shallow=False)
        if mismatch or errors:
            bad.append(task_dir.name)
    return bad


def _wall(results: list[dict]) -> float:
    """Sum over tasks of the mean per-task duration."""
    per_task = zip(*([t["wall_s"] for t in r["tasks"]] for r in results))
    return sum(statistics.mean(ts) for ts in per_task)


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def benchmark(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, list[str]]:
    started = time.monotonic()
    deadline = started + BUDGET_S
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir()
    # set-up-only starts come first: they also take the machine out of idle,
    # which otherwise slows the first task of the first pass
    setups = [run_pass(workload, seed, WORK / f"setup{k}", False, True, deadline)["setup_s"]
              for k in range(SETUP_ONLY_STARTS)]
    passes: list[tuple[bool, dict, Path]] = []  # (traced, result, dir)
    measured = 0.0
    n_plain = n_traced = 0
    while True:
        # with tracing, untraced and traced passes alternate until there are
        # MIN_UNTRACED_WITH_TRACE untraced ones, and traced ones follow
        traced = trace and (n_traced < n_plain or n_plain >= MIN_UNTRACED_WITH_TRACE)
        d = WORK / f"pass{len(passes)}"
        t0 = time.monotonic()
        passes.append((traced, run_pass(workload, seed, d, traced, False, deadline), d))
        measured += time.monotonic() - t0
        n_traced += traced
        n_plain += not traced
        enough = n_traced >= MIN_PASSES if trace else n_plain >= MIN_PASSES
        if measured >= seconds and enough:
            break
    setups += [r["setup_s"] for _, r, _ in passes]

    gate_log = WORK / "gate.json"
    _spawn([str(HERE / "gate.py"), "--dir", str(passes[0][2])], gate_log, deadline)
    verdict = json.loads(gate_log.read_text())

    base_dir = passes[0][2]
    mismatched = sorted({t for _, _, d in passes[1:] for t in _artifact_mismatches(base_dir, d)})
    failed = verdict["failed"]
    for name in mismatched:  # a mismatch fails every value of the task
        entry = next(t for t in verdict["tasks"] if t["name"] == name)
        failed += entry["values"] - entry["failed"]
        entry["failed"] = entry["values"]
        entry["unexplained"].append("artifacts differ between passes")
    attempted = verdict["attempted"]
    unexplained = verdict["unexplained"] + len(mismatched)

    plain = [r for t, r, _ in passes if not t]
    wall = _wall(plain)
    if trace:
        traced = [r for t, r, _ in passes if t]
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        layers["trace.overhead_s"] = _wall(traced) - wall
        layers["trace.artifact_mismatches"] = float(len(mismatched))
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in plain), "unit": "MB"},
        }

    first = passes[0][1]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": first["nproc"],
        "cpu_model": _cpu_model(),
        "versions": first["versions"],
        "passes": [{"traced": t, "wall_s": r["wall_s"], "setup_s": r["setup_s"],
                    "peak_rss_mb": r["peak_rss_mb"]} for t, r, _ in passes],
        "setup_samples_s": setups,
        "tasks": [{**{k: rec[k] for k in ("name", "config_sha256", "exit_code", "exception")},
                   "wall_s": statistics.mean(r["tasks"][i]["wall_s"] for r in plain)}
                  for i, rec in enumerate(first["tasks"])],
        "gate": {"attempted": attempted, "failed": failed, "unexplained": unexplained,
                 "by_defect": verdict["by_defect"], "artifact_mismatches": mismatched},
        "elapsed_s": time.monotonic() - started,
    }
    lines = [f"workload {workload}, seed {seed}, {len(passes)} pass(es), trace {int(trace)}"]
    for rec, entry in zip(record["tasks"], verdict["tasks"]):
        status = rec["exception"] or f"exit {rec['exit_code']}"
        lines.append(f"  {rec['name']:<34s} {status:<16s} {rec['wall_s']:9.3f} s  "
                     f"failed {entry['failed']}/{entry['values']} {' '.join(entry['defects'])}")
        lines += [f"    unexplained: {u}" for u in entry["unexplained"]]
    if not trace:
        lines.append(f"setup_s {metrics['setup_s']['value']:.4f} s (median of {len(setups)})")
        lines.append(f"wall_s {wall:.4f} s (per-task means over {len(plain)} passes)")
        lines.append(f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB")
    else:
        lines += [f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    lines.append(f"fail_frac {failed / attempted:.4f} ({failed} of {attempted} values failed; "
                 f"by defect {verdict['by_defect']}; unexplained {unexplained})")
    lines.append("run_record: " + json.dumps(record, sort_keys=True))
    out = {"correct": unexplained == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return out, lines


def _unit(name: str) -> str:
    if name.endswith("draws_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("share", "ratio")):
        return "ratio"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "rwre_ldp" / "cli.py").is_file():
        print(f"benchmark: no rwre_ldp sources under {SRC}", file=sys.stderr)
        return 2
    try:
        out, lines = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
