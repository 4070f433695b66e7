"""The names the benchmark's tracer rebinds (perfbench/tracing.py) exist.

The tracer wraps these functions from outside the package at run time, so a
refactor that renames or removes one breaks traced benchmark runs without
failing anything else. The file is read with runpy, which compiles it in
memory and leaves the benchmark directory as it is.
"""

import importlib
import json
import os
import runpy
import subprocess
import sys
import textwrap
from pathlib import Path

from rwre_ldp import rate

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"

TRACED_RUN = textwrap.dedent(
    """
    import json
    import runpy
    import sys
    import time
    from pathlib import Path

    import rwre_ldp.cli as cli

    tracing, configs, out = (Path(a) for a in sys.argv[1:])
    ns = runpy.run_path(str(tracing))
    tracer = ns["Tracer"]()
    ns["install"](tracer)
    t0 = time.perf_counter()
    codes = [cli.run(configs / f"{name}.json", out_dir=out / name)
             for name in ("tilt_report_per2", "mc_verify_per2")]
    metrics = ns["layer_metrics"](tracer, time.perf_counter() - t0)
    print(json.dumps({"codes": codes, "metrics": metrics}))
    """
)


def test_every_traced_name_is_a_function_of_its_module():
    tracing = runpy.run_path(str(TRACING))
    for table in (tracing["SPANNED"], tracing["COUNTED"]):
        for short, names in table.items():
            module = importlib.import_module(f"rwre_ldp.{short}")
            for name in names:
                assert callable(getattr(module, name, None)), f"rwre_ldp.{short}.{name}"


def test_threshold_cache_can_be_rebuilt_around_the_tracer():
    # tracing.install checks cache_info() before it rebuilds the cache
    assert callable(rate._rc_cached.cache_info)


def test_traced_run_sees_every_tilt_layer(tmp_path):
    # a fresh interpreter, since install rebinds the package's functions for
    # good; one chain for the tilt report, and one for each of the two
    # mc-verify checks that read one (tilted drift and corrector path at r;
    # the velocity and passage checks read tilt.velocity)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(TRACING), str(ROOT / "configs"), str(tmp_path)],
        capture_output=True, text=True, env=env, check=True,
    )
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0]
    metrics = out["metrics"]
    assert metrics["tilt.tilt_kernel.calls"] == 3
    read = [k for k in metrics if k.startswith("tilt.")] + ["passage.lyapunov_prime.s"]
    assert [k for k in read if not metrics[k] > 0] == []
