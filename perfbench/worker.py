"""One workload pass in a fresh interpreter, so module caches start cold.

Usage: ``python worker.py --workload W --seed N --dir D [--trace] [--setup-only]``

Writes the workload's configs to ``D/configs``, runs each task through
``rwre_ldp.cli.run`` with its artifacts in ``D/out/<task>``, and writes
``D/result.json``: the time the first task started (``time.monotonic``,
which the parent compares with the moment it spawned this process), the
import time, each task's config sha256, exit code or exception type and
wall time, the peak RSS and, with ``--trace``, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--dir", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t_import = time.perf_counter()
    import numpy
    import scipy

    import rwre_ldp.cli as cli

    import_s = time.perf_counter() - t_import

    import workloads

    nproc = len(os.sched_getaffinity(0))
    tasks = workloads.make_tasks(args.workload, args.seed, nproc)
    root = Path(args.dir)
    (root / "configs").mkdir(parents=True, exist_ok=True)
    paths = {}
    for t in tasks:
        p = root / "configs" / f"{t.name}.json"
        p.write_text(json.dumps(t.config, indent=2, sort_keys=True) + "\n")
        paths[t.name] = p

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    first_task_at = time.monotonic()
    records = []
    if not args.setup_only:
        for t in tasks:
            rec = {
                "name": t.name,
                "task": t.config["task"],
                "config_sha256": hashlib.sha256(paths[t.name].read_bytes()).hexdigest(),
                "threads": t.threads,
                "exit_code": None,
                "exception": None,
            }
            t0 = time.perf_counter()
            try:
                # strict turns a failed statistical gate into exit 1; only
                # mc-verify has such gates
                rec["exit_code"] = cli.run(
                    paths[t.name], strict=True, out_dir=root / "out" / t.name, threads=t.threads
                )
            except Exception as exc:  # a crash is a result to record, not a reason to stop
                rec["exception"] = type(exc).__name__
            rec["wall_s"] = time.perf_counter() - t0
            records.append(rec)

    wall_s = sum(r["wall_s"] for r in records)
    result = {
        "first_task_at": first_task_at,
        "import_s": import_s,
        "tasks": records,
        "wall_s": wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "rwre_ldp": cli.__version__,
        },
        "rwre_ldp_path": str(Path(cli.__file__).resolve().parent),
        "nproc": nproc,
    }
    if tracer is not None:
        import tracing

        result["layers"] = tracing.layer_metrics(tracer, wall_s)
        result["layers"]["setup.import_s"] = import_s
    (root / "result.json").write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
