"""The names the benchmark's tracer rebinds (perfbench/tracing.py) exist.

The tracer wraps these functions from outside the package at run time, so a
refactor that renames or removes one breaks traced benchmark runs without
failing anything else. The file is read with runpy, which compiles it in
memory and leaves the benchmark directory as it is.
"""

import importlib
import runpy
from pathlib import Path

from rwre_ldp import rate

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
