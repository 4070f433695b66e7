"""Smoke tests: the command-line scripts run in-process and exit 0."""

import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, monkeypatch) -> int:
    monkeypatch.setattr(sys, "argv", [name, *args])
    main = runpy.run_path(str(ROOT / "scripts" / name))["main"]
    return main()


def test_calibrate_mc_pilot(monkeypatch, capsys):
    assert run_script("calibrate_mc.py", "--pilot", "40", monkeypatch=monkeypatch) == 0
    out = capsys.readouterr().out
    assert "pilot: 40 replicas" in out and "passage-lln" in out


def _canned_run(side: str, pair: int, wall: float, rss: float = 40.0) -> dict:
    metrics = {"setup_s": {"value": 0.26, "unit": "s"}, "wall_s": {"value": wall, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return {"workload": "rate_sweep", "seed": 1, "pair": pair, "side": side,
            "result": {"correct": True, "attempted": 135, "failed": 0, "metrics": metrics,
                       "tasks": {"t": wall}}}


def test_bench_summary_on_a_canned_record():
    # the summary only: no test runs the benchmark itself
    summarize = runpy.run_path(str(ROOT / "scripts" / "bench.py"))["summarize"]
    base = [0.040, 0.044, 0.046, 0.050]
    head = [0.030, 0.045, 0.034, 0.036]
    runs = [_canned_run("base", k, w) for k, w in enumerate(base)]
    runs += [_canned_run("head", k, w, rss=40.0 + k) for k, w in enumerate(head)]
    runs.append({**_canned_run("head", 4, 0.0), "result": {"error": "exit 1: budget"}})
    entry = summarize(runs)["rate_sweep/seed1"]
    assert entry["pairs"] == 4 and entry["errors"] == 1
    wall = entry["metrics"]["wall_s"]
    assert wall["base"] == pytest.approx({"q1": 0.043, "median": 0.045, "q3": 0.047})
    assert wall["head"]["median"] == pytest.approx(0.035)
    assert wall["head_wins"] == 3  # pair 1 is the base's
    assert wall["median_change"] == pytest.approx(0.035 / 0.045 - 1.0)
    assert wall["gap_exceeds_base_iqr"]
    rss = entry["metrics"]["peak_rss_mb"]
    # the head's RSS rose by 1.5 MB against a base IQR of 0: flagged
    assert rss["head_wins"] == 0 and rss["gap_exceeds_base_iqr"]
    assert entry["fail_frac"]["head"] == ["0 of 135"] * 4
    tasks = entry["tasks_median_s"]
    assert tasks["base"] == pytest.approx({"t": 0.045}) and tasks["head"] == pytest.approx({"t": 0.035})


def test_bench_config_summary_on_a_canned_record():
    summarize_configs = runpy.run_path(str(ROOT / "scripts" / "bench.py"))["summarize_configs"]
    base = [0.60, 0.64, 0.66, 0.70]
    head = [0.50, 0.65, 0.54, 0.56]
    runs = [{"config": "a.json", "pair": k, "side": side, "result": {"wall_s": w}}
            for side, walls in (("base", base), ("head", head)) for k, w in enumerate(walls)]
    runs.append({"config": "a.json", "pair": 4, "side": "head",
                 "result": {"error": "exit 2: config error"}})
    # a config only the head has is timed, not compared
    runs.append({"config": "new.json", "pair": 0, "side": "head", "result": {"wall_s": 0.3}})
    summary = summarize_configs(runs)
    assert sorted(summary) == ["a.json", "new.json"]
    a = summary["a.json"]
    assert a["errors"] == 1
    assert a["base"] == pytest.approx({"q1": 0.63, "median": 0.65, "q3": 0.67})
    assert a["head"]["median"] == pytest.approx(0.55)
    assert a["head_wins"] == 3  # pair 1 is the base's
    assert a["median_change"] == pytest.approx(0.55 / 0.65 - 1.0)
    assert a["gap_exceeds_base_iqr"]
    assert summary["new.json"] == {"errors": 0}
