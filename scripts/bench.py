#!/usr/bin/env python3
"""Compare two commits on the benchmark and write the result as JSON.

Both commits are extracted in turn into one fixed directory, because the
peak RSS of a pass moves with the path it runs from. For every workload and
seed, N pairs of `perfbench/run.py --trace 0` runs alternate the two sides
(base first in even pairs, head first in odd ones); then N pairs, alternating
alike, time every `configs/*.json` of each side as one cold
`python -B -m rwre_ldp.cli run CONFIG --out DIR` process (a fresh interpreter
that compiles the package from source, on both sides alike); then each side
gets one `--trace 1` run per workload at the first seed, for the per-layer
metrics; then the Tier-1 suite runs once on the head commit.

The output holds, per workload and seed, each end-to-end metric's median
and quartiles on both sides, the pairs the head won, fail_frac and per-task
medians; per config, the same comparison of its cold wall time
(`configs_cold_s`); with nproc, the CPU model, the Python, numpy and scipy
versions, whether the passes compiled the package from source
(PYTHONDONTWRITEBYTECODE) and both commits. It is written after every run, so an interrupted comparison
keeps what it measured.

Usage: python scripts/bench.py --base REV --head REV --out BENCH_N.json
           [--pairs 10] [--seeds 1 23] [--seconds 8] [--workdir DIR]
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("rate_sweep", "per_tilt_mc")
# every end-to-end metric of BENCHMARK.json is better lower
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def _git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def checkout(commit: str, path: Path) -> None:
    """The files of commit, alone, at path."""
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
        tar.extractall(path, filter="data")


def run_bench(path: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One perfbench/run.py run from the checkout at path: its final JSON
    line, with the tasks and machine of its run_record line."""
    args = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(args, cwd=path, capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    lines = proc.stdout.splitlines()
    out = json.loads(lines[-1])
    record = next(json.loads(line.split(": ", 1)[1]) for line in lines
                  if line.startswith("run_record: "))
    out["tasks"] = {t["name"]: t["wall_s"] for t in record["tasks"]}
    out["machine"] = {k: record[k] for k in ("nproc", "cpu_model", "versions")}
    # with PYTHONDONTWRITEBYTECODE set, every pass compiles rwre_ldp from
    # source inside setup_s, where cached bytecode would be read instead
    out["machine"]["compiles_from_source"] = bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    return out


def _quartiles(xs: list[float]) -> dict:
    if len(xs) == 1:
        return {"q1": xs[0], "median": xs[0], "q3": xs[0]}
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def _compare(samples: dict, pairs: list[dict]) -> dict:
    """Both sides' quartiles of one lower-is-better metric, the pairs whose
    head value is lower, and the change of the medians against the base's
    IQR; samples and each pair map "base" and "head" to values."""
    base, head = _quartiles(samples["base"]), _quartiles(samples["head"])
    return {
        "base": base, "head": head, "samples": samples,
        "head_wins": sum(p["head"] < p["base"] for p in pairs),
        "median_change": head["median"] / base["median"] - 1.0,
        "gap_exceeds_base_iqr": abs(head["median"] - base["median"]) > base["q3"] - base["q1"],
    }


def summarize(runs: list[dict]) -> dict:
    """Per workload and seed: each end-to-end metric's quartiles on both
    sides, the pairs whose head value is lower, the change of the medians
    against the base's IQR; fail_frac and per-task medians of both sides.

    A run is {"workload", "seed", "pair", "side" ("base" | "head"), "result"},
    result being `run_bench`'s output; runs whose result holds an "error"
    are counted, not summarized, and a pair lacking a side is not compared.
    """
    out: dict = {}
    for key in sorted({(r["workload"], r["seed"]) for r in runs}):
        group = [r for r in runs if (r["workload"], r["seed"]) == key]
        ok = [r for r in group if "error" not in r["result"]]
        sides = {s: [r["result"] for r in ok if r["side"] == s] for s in ("base", "head")}
        by_pair: dict = {}
        for r in ok:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        pairs = [p for p in by_pair.values() if len(p) == 2]
        entry: dict = {"pairs": len(pairs), "errors": len(group) - len(ok), "metrics": {}}
        for name in END_TO_END:
            vals = {s: [res["metrics"][name]["value"] for res in rs] for s, rs in sides.items()}
            if not (vals["base"] and vals["head"]):
                continue
            entry["metrics"][name] = _compare(
                vals, [{s: res["metrics"][name]["value"] for s, res in p.items()} for p in pairs])
        entry["fail_frac"] = {
            s: [f"{res['failed']} of {res['attempted']}" for res in rs] for s, rs in sides.items()
        }
        entry["tasks_median_s"] = {
            s: {t: statistics.median(res["tasks"][t] for res in rs) for t in rs[0]["tasks"]}
            for s, rs in sides.items() if rs
        }
        out[f"{key[0]}/seed{key[1]}"] = entry
    return out


def time_config(path: Path, config: Path) -> dict:
    """Wall time of one cold CLI run of config from the checkout at path."""
    args = [sys.executable, "-B", "-m", "rwre_ldp.cli", "run", str(config),
            "--out", str(path / "cold_out" / config.stem)]
    env = dict(os.environ, PYTHONPATH="src")
    t0 = time.perf_counter()
    proc = subprocess.run(args, cwd=path, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return {"wall_s": wall}


def summarize_configs(runs: list[dict]) -> dict:
    """Per config: `_compare` of its cold wall time, and the runs that
    failed. A run is {"config", "pair", "side", "result"}, result being
    `time_config`'s output; a config one side lacks is not compared."""
    out: dict = {}
    for name in sorted({r["config"] for r in runs}):
        group = [r for r in runs if r["config"] == name]
        ok = [r for r in group if "error" not in r["result"]]
        samples = {s: [r["result"]["wall_s"] for r in ok if r["side"] == s]
                   for s in ("base", "head")}
        by_pair: dict = {}
        for r in ok:
            by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]["wall_s"]
        entry = {"errors": len(group) - len(ok)}
        if samples["base"] and samples["head"]:
            entry.update(_compare(samples, [p for p in by_pair.values() if len(p) == 2]))
        out[name] = entry
    return out


def tier1(path: Path) -> dict:
    t0 = time.perf_counter()
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(TIER1, cwd=path, env=env, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return {"exit_code": proc.returncode, "wall_s": time.perf_counter() - t0,
            "summary": lines[-1] if lines else ""}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="commit compared against")
    ap.add_argument("--head", required=True, help="commit under test")
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 23])
    ap.add_argument("--seconds", type=int, default=8)
    ap.add_argument("--workdir", type=Path, default=ROOT / ".bench_checkout",
                    help="the one directory both sides run from")
    args = ap.parse_args()
    commits = {side: _git("rev-parse", rev).decode().strip()
               for side, rev in (("base", args.base), ("head", args.head))}
    doc = {"commits": commits, "seconds": args.seconds,
           "runs": [], "config_runs": [], "traced": {}}

    def save() -> None:
        doc["summary"] = summarize(doc["runs"])
        doc["configs_cold_s"] = summarize_configs(doc["config_runs"])
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")

    for workload in WORKLOADS:
        for seed in args.seeds:
            for pair in range(args.pairs):
                order = ("base", "head") if pair % 2 == 0 else ("head", "base")
                for side in order:
                    checkout(commits[side], args.workdir)
                    res = run_bench(args.workdir, workload, seed, args.seconds, False)
                    doc["runs"].append({"workload": workload, "seed": seed, "pair": pair,
                                        "side": side, "result": res})
                    if "machine" in res:
                        doc.setdefault("machine", res["machine"])
                    print(f"{workload} seed {seed} pair {pair} {side}: "
                          f"{res.get('error') or res['metrics']['wall_s']['value']}", flush=True)
                    save()
    for pair in range(args.pairs):
        for side in ("base", "head") if pair % 2 == 0 else ("head", "base"):
            checkout(commits[side], args.workdir)
            for config in sorted((args.workdir / "configs").glob("*.json")):
                res = time_config(args.workdir, config)
                doc["config_runs"].append({"config": config.name, "pair": pair, "side": side,
                                           "result": res})
                print(f"{config.name} pair {pair} {side}: {res.get('error') or res['wall_s']}",
                      flush=True)
            save()
    for workload in WORKLOADS:
        for side in ("base", "head"):
            checkout(commits[side], args.workdir)
            res = run_bench(args.workdir, workload, args.seeds[0], args.seconds, True)
            doc["traced"][f"{workload}/{side}"] = res
            save()
    checkout(commits["head"], args.workdir)
    doc["tier1_head"] = tier1(args.workdir)
    save()
    shutil.rmtree(args.workdir)
    print(json.dumps(doc["summary"], indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
