"""Smoke tests: the command-line scripts run in-process and exit 0."""

import runpy
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str, monkeypatch) -> int:
    monkeypatch.setattr(sys, "argv", [name, *args])
    main = runpy.run_path(str(ROOT / "scripts" / name))["main"]
    return main()


def test_rate_profile_on_committed_config(monkeypatch, capsys):
    code = run_script("rate_profile.py", str(ROOT / "configs" / "rate_curve_sym.json"),
                      monkeypatch=monkeypatch)
    assert code == 0
    out = capsys.readouterr().out
    assert "interior" in out and "worst dual gap" in out


def test_calibrate_mc_pilot(monkeypatch, capsys):
    assert run_script("calibrate_mc.py", "--pilot", "40", monkeypatch=monkeypatch) == 0
    out = capsys.readouterr().out
    assert "pilot: 40 replicas" in out and "passage-lln" in out
