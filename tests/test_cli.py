"""Batch front end: config validation, artifacts, exit codes, determinism."""

import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from rwre_ldp import cli, mc, passage, rate, tilt
from rwre_ldp.cli import main, parse_config
from rwre_ldp.environment import env_from_json

from .refusing_lapack import refusing

SYM = {"type": "homogeneous", "B": 1, "laws": [{"-1": 0.5, "1": 0.5}]}
PER2 = {
    "type": "periodic",
    "B": 1,
    "laws": [{"-1": 0.2, "1": 0.8}, {"-1": 0.6, "1": 0.4}],
}
# left-transient: velocity -0.3 (PER2_LEFT) and about -0.51 (PER3_B2_LEFT)
PER2_LEFT = {"type": "periodic", "B": 1, "laws": [{"-1": 0.7, "1": 0.3}, {"-1": 0.6, "1": 0.4}]}
PER3_B2_LEFT = {"type": "periodic", "B": 2, "laws": [
    {"2": 0.1, "1": 0.2, "-1": 0.3, "-2": 0.4},
    {"2": 0.15, "1": 0.25, "-1": 0.3, "-2": 0.3},
    {"2": 0.1, "1": 0.3, "-1": 0.25, "-2": 0.35},
]}
# full support and rightward drift (velocity about 0.49)
B2_DRIFTED = {"type": "periodic", "B": 2, "laws": [
    {"-2": 0.1, "-1": 0.2, "1": 0.3, "2": 0.4},
    {"-2": 0.15, "-1": 0.25, "1": 0.3, "2": 0.3},
    {"-2": 0.1, "-1": 0.3, "1": 0.25, "2": 0.35},
]}
# a sampled window of a two-atom iid law
WINDOW = {"type": "iid", "B": 1, "window": [-50, 50], "seed": 7, "atoms": [
    {"weight": 0.5, "law": {"-1": 0.3, "1": 0.7}},
    {"weight": 0.5, "law": {"-1": 0.6, "1": 0.4}},
]}
WIDE = {
    "type": "homogeneous",
    "B": 2,
    "laws": [{"-2": 0.1, "-1": 0.2, "1": 0.5, "2": 0.2}],
}
MC_SMALL = {"n_steps": 1500, "n_walkers": 80, "mgf_walkers": 15000, "level": 6, "r": -0.3}
MC_TINY = {"n_steps": 1000, "n_walkers": 50, "mgf_walkers": 2000}
ROOT = Path(__file__).resolve().parents[1]
CONFIG_DIR = ROOT / "configs"
FIXTURES = Path(__file__).resolve().parent / "fixtures"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def assert_close_tree(got, want, rel: float, abs_: float, path: str = "") -> None:
    """Same JSON structure and non-float values; floats within
    max(rel * |want|, abs_)."""
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), path
        for k in want:
            assert_close_tree(got[k], want[k], rel, abs_, f"{path}.{k}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close_tree(g, w, rel, abs_, f"{path}[{i}]")
    elif isinstance(want, float):
        assert isinstance(got, float), path
        assert abs(got - want) <= max(rel * abs(want), abs_), (path, got, want)
    else:
        assert got == want, path


def run_cfg(tmp: Path, cfg: dict, *flags: str, name: str = "cfg.json") -> tuple[int, Path]:
    path = tmp / name
    path.write_text(json.dumps(cfg))
    out = tmp / (name + ".out")
    code = main(["run", str(path), "--out", str(out), *flags])
    return code, out


def read_csv(path: Path) -> tuple[str, list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], lines[1].split(","), rows


class TestConfigErrors:
    def test_missing_jump_bound(self, tmp_path, capsys):
        env = {k: v for k, v in SYM.items() if k != "B"}
        code, _ = run_cfg(tmp_path, {"task": "lambda-curve", "environment": env,
                                     "grid": [-0.5]})
        assert code == 2
        assert "environment.B" in capsys.readouterr().err

    def test_unknown_task(self, tmp_path, capsys):
        code, _ = run_cfg(tmp_path, {"task": "fit-spline", "environment": SYM})
        assert code == 2
        assert "task" in capsys.readouterr().err

    def test_simulation_needs_seed(self, tmp_path, capsys):
        code, _ = run_cfg(tmp_path, {"task": "mc-verify", "environment": SYM})
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_curve_tasks_need_grid(self, tmp_path):
        code, _ = run_cfg(tmp_path, {"task": "rate-curve", "environment": SYM})
        assert code == 2

    def test_grid_rejects_zero_points(self, tmp_path, capsys):
        code, _ = run_cfg(tmp_path, {"task": "lambda-curve", "environment": SYM,
                                     "grid": {"min": -1, "max": -0.1, "points": 0}})
        assert code == 2
        assert "grid.points" in capsys.readouterr().err

    def test_grid_rejects_inverted_range(self, tmp_path):
        code, _ = run_cfg(tmp_path, {"task": "lambda-curve", "environment": SYM,
                                     "grid": {"min": -0.1, "max": -1.0, "points": 3}})
        assert code == 2

    def test_grid_rejects_empty_list(self, tmp_path):
        code, _ = run_cfg(tmp_path, {"task": "lambda-curve", "environment": SYM,
                                     "grid": []})
        assert code == 2

    def test_ellipticity_violation_is_a_config_error(self, tmp_path, capsys):
        env = dict(PER2, delta=0.3)  # law 0 has prob(-1) = 0.2 < 0.3
        code, _ = run_cfg(tmp_path, {"task": "lambda-curve", "environment": env,
                                     "grid": [-0.5]})
        assert code == 2
        assert "prob(-1)" in capsys.readouterr().err

    def test_control_ellipticity_violation_is_a_config_error(self, tmp_path, capsys):
        control = dict(PER2, delta=0.45)  # prob(-1) = 0.2 in law 0, prob(+1) = 0.4 in law 1
        code, _ = run_cfg(tmp_path, {"task": "counterexample", "environment": WIDE,
                                     "control_environment": control})
        assert code == 2
        assert capsys.readouterr().err == (
            "config error: config key 'control_environment': law 0: prob(-1)=0.2 below "
            "delta=0.45; law 1: prob(+1)=0.4 below delta=0.45\n")

    def test_unknown_mc_check_name(self, tmp_path, capsys):
        cfg = {"task": "mc-verify", "environment": SYM, "seed": 1,
               "mc": {"checks": ["empirical-velocity", "coin-flip"]}}
        code, _ = run_cfg(tmp_path, cfg)
        assert code == 2
        assert "mc.checks" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["n_walkers", "mgf_walkers"])
    def test_one_walker_has_no_standard_error(self, tmp_path, capsys, key):
        cfg = {"task": "mc-verify", "environment": PER2, "seed": 1,
               "mc": {"n_steps": 100, "n_walkers": 2, "mgf_walkers": 2, key: 1}}
        code, out = run_cfg(tmp_path, cfg)
        assert code == 2
        assert capsys.readouterr().err == (
            f"config error: config key 'mc.{key}': must be at least 2\n")
        assert not (out / "mc_report.jsonl").exists()

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

    @pytest.mark.parametrize("patch, key", [
        ({"r": "abc"}, "r"),
        ({"r": None}, "r"),
        ({"xi": "fast"}, "xi"),
        ({"tolerance": "x"}, "tolerance"),
        ({"rc_tol": "tight"}, "rc_tol"),
        ({"threshold": [1]}, "threshold"),
        ({"r_values": [1, "q"]}, "r_values[1]"),
        ({"grid": [0.1, "a"]}, "grid[1]"),
        ({"mc": {"checks": 5}}, "mc.checks"),
        ({"environment": dict(SYM, delta="x")}, "environment.delta"),
        ({"environment": dict(SYM, laws=5)}, "environment.laws"),
        ({"environment": dict(SYM, seed=[1])}, "environment.seed"),
        ({"environment": "periodic"}, "environment"),
        # a non-finite number is malformed too
        ({"r": math.nan}, "r"),
        ({"r": "nan"}, "r"),
        ({"xi": math.inf}, "xi"),
        ({"xi": "-Infinity"}, "xi"),
        ({"grid": [0.1, math.nan, 0.5]}, "grid[1]"),
        ({"grid": {"min": -math.inf, "max": 0.5, "points": 3}}, "grid.min"),
        ({"grid": {"min": -0.5, "max": "inf", "points": 3}}, "grid.max"),
        ({"r_values": [-0.5, "nan"]}, "r_values[1]"),
        ({"tolerance": math.inf}, "tolerance"),
        ({"rc_tol": math.nan}, "rc_tol"),
        ({"threshold": "inf"}, "threshold"),
        ({"mc": {"r": math.nan}}, "mc.r"),
        ({"mc": {"gate": math.inf}}, "mc.gate"),
        # an integer key takes no fraction, boolean or string
        ({"seed": 3.7}, "seed"),
        ({"seed": True}, "seed"),
        ({"seed": "7"}, "seed"),
        ({"environment": dict(SYM, B=1.9)}, "environment.B"),
        ({"environment": dict(SYM, seed=1.5)}, "environment.seed"),
        ({"mc": {"n_walkers": 2.9}}, "mc.n_walkers"),
        ({"mc": {"level": False}}, "mc.level"),
        ({"grid": {"min": -1.0, "max": -0.1, "points": 2.9}}, "grid.points"),
        ({"grid": {"min": -1.0, "max": -0.1, "points": "3"}}, "grid.points"),
        ({"environment": dict(WINDOW, window=[-50.5, 50])}, "environment.window[0]"),
        ({"environment": dict(WINDOW, window=[-50, True])}, "environment.window[1]"),
    ], ids=lambda x: x if isinstance(x, str) else None)
    def test_malformed_value_names_its_key(self, tmp_path, capsys, patch, key):
        cfg = {"task": "lambda-curve", "environment": SYM, "grid": [-0.5], **patch}
        code, _ = run_cfg(tmp_path, cfg)
        assert code == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("task, patch, key", [
        *[(t, {}, "environment.type") for t in
          ("rate-curve", "tilt-report", "level2-min", "mc-verify", "counterexample",
           "symmetry-check")],
        ("counterexample", {"environment": WIDE, "control_environment": WINDOW},
         "control_environment.type"),
    ])
    def test_window_outside_lambda_curve_names_its_key(self, tmp_path, capsys, task, patch, key):
        # every task but lambda-curve needs a finite class cycle
        cfg = {"task": task, "environment": WINDOW, "grid": [0.3], "r": -0.3, "xi": 0.3,
               "seed": 1, **patch}
        code, _ = run_cfg(tmp_path, cfg)
        assert code == 2
        assert f"config key '{key}'" in capsys.readouterr().err

    def test_window_runs_lambda_curve(self, tmp_path):
        cfg = {"task": "lambda-curve", "environment": WINDOW, "grid": [-0.3], "rc_tol": 1e-2}
        code, out = run_cfg(tmp_path, cfg)
        assert code == 0
        assert (out / "lambda_curve.csv").exists()
        # a window's reflection is a box of its own, bisected apart, so its
        # bracket is written beside the window's
        rc = json.loads((out / "lambda_curve.json").read_text())["rc"]
        assert rc["predicate"] == "window-box"
        lo, hi = rc["bracket_reflected"]
        assert rc["reflect_gap"] == abs(rc["value"] - 0.5 * (lo + hi))

    def test_window_too_narrow_exits_3_with_bare_diagnostics(self, tmp_path, capsys):
        env = {**WINDOW, "B": 2, "window": [-2, 2],
               "atoms": [{"weight": 1.0, "law": {"-2": 0.1, "-1": 0.3, "1": 0.4, "2": 0.2}}]}
        code, out = run_cfg(tmp_path, {"task": "lambda-curve", "environment": env,
                                       "grid": [-0.3]})
        assert code == 3
        assert "too narrow for any stabilized site" in capsys.readouterr().err
        diag = json.loads((out / "diagnostics.json").read_text())
        # the error class sets no attribute of its own
        assert sorted(diag) == ["_meta", "error", "message", "task"]
        assert diag["error"] == "WindowExhaustedError"
        assert diag["message"] == ("window [-2, 2] too narrow for any stabilized site; "
                                   "widen the window")

    def test_parse_config_requires_object(self):
        from rwre_ldp.errors import ConfigError

        with pytest.raises(ConfigError):
            parse_config([1, 2, 3], "deadbeef")


@pytest.fixture(scope="module")
def lambda_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("lam")
    cfg = {"task": "lambda-curve", "environment": PER2,
           "grid": {"min": -1.0, "max": -0.1, "points": 5}}
    return run_cfg(tmp, cfg), tmp, cfg


class TestLambdaCurve:
    def test_exit_zero(self, lambda_run):
        (code, _), _, _ = lambda_run
        assert code == 0

    def test_csv_shape(self, lambda_run):
        (_, out), _, _ = lambda_run
        comment, header, rows = read_csv(out / "lambda_curve.csv")
        assert comment.startswith("# config_sha256=")
        assert "version=" in comment
        assert header == ["r", "lambda", "lambda_bar", "converged", "n_used", "M_used"]
        assert len(rows) == 5
        assert all(row[3] == "1" for row in rows)

    def test_json_flags(self, lambda_run):
        (_, out), _, _ = lambda_run
        rep = json.loads((out / "lambda_curve.json").read_text())
        assert rep["monotone_ok"] and rep["convex_ok"] and rep["bound_ok"]
        assert rep["rc"]["bracket"][0] < rep["rc"]["value"] < rep["rc"]["bracket"][1]
        assert rep["_meta"]["version"]

    def test_rerun_is_byte_identical(self, lambda_run, tmp_path):
        (_, out), _, cfg = lambda_run
        code, out2 = run_cfg(tmp_path, cfg)
        assert code == 0
        for name in ("lambda_curve.csv", "lambda_curve.json"):
            assert (out / name).read_bytes() == (out2 / name).read_bytes()

    def test_unsettled_zeta_sweep_exits_3(self, tmp_path):
        # the critical tilt of a fair walk: the sweep runs out of cycles
        env = {"type": "periodic", "B": 1, "laws": [{"-1": 0.5, "1": 0.5}] * 3}
        code, out = run_cfg(tmp_path, {"task": "lambda-curve", "environment": env,
                                       "grid": [0.0]})
        assert code == 3
        assert not (out / "lambda_curve.csv").exists()
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "SlowConvergenceError"
        assert diag["diagnostics"] == {"r": 0.0, "cycles": passage._ZETA_MAX_CYCLES}


@pytest.fixture(scope="module")
def rate_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("rate")
    cfg = {"task": "rate-curve", "environment": SYM, "grid": [0.0, 0.5]}
    return run_cfg(tmp, cfg)


class TestRateCurve:
    def test_exit_zero(self, rate_run):
        code, _ = rate_run
        assert code == 0

    def test_half_speed_cost_of_symmetric_walk(self, rate_run):
        _, out = rate_run
        _, header, rows = read_csv(out / "rate_curve.csv")
        assert header == ["xi", "I", "r_star", "branch", "err_flag"]
        by_xi = {float(r[0]): r for r in rows}
        assert float(by_xi[0.5][1]) == pytest.approx(0.130812, abs=1e-6)
        assert by_xi[0.5][3] == "interior"
        assert by_xi[0.0][3] == "interior"
        assert all(r[4] == "0" for r in rows)

    def test_summary_reports_both_directions(self, rate_run):
        _, out = rate_run
        rep = json.loads((out / "rate_curve.json").read_text())
        assert rep["convex_ok"]
        # the reflection's Lambda is Lambda(-s): one threshold and one
        # critical drift serve both orientations, and for a symmetric law
        # the critical drift sits at zero speed
        assert sorted(rep) == ["_meta", "argmin", "convex_ok", "min_value", "rc", "xi_critical"]
        assert rep["rc"]["value"] == pytest.approx(0.0, abs=1e-6)
        assert rep["xi_critical"] == pytest.approx(0.0, abs=1e-3)

    def test_drift_root_failure_exits_3_with_diagnostics(self, tmp_path, monkeypatch):
        real = passage.perron_stack

        def poisoned(env, ss):
            # the outward bracket walk visits integers only; Brent's steps don't
            return [
                dataclasses.replace(pt, slope=math.nan) if s != int(s) else pt
                for s, pt in zip(ss, real(env, ss))
            ]

        monkeypatch.setattr(passage, "perron_stack", poisoned)
        code, out = run_cfg(tmp_path, {"task": "rate-curve", "environment": PER2,
                                       "grid": [0.3]})
        assert code == 3
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "SlowConvergenceError"
        assert diag["diagnostics"]["xi"] == 0.3
        assert diag["diagnostics"]["iterations"] >= 1
        assert len(diag["diagnostics"]["bracket"]) == 2

    def test_eigen_solve_failure_exits_3_with_diagnostics(self, tmp_path):
        with refusing(eig=lambda K: True):
            code, out = run_cfg(tmp_path, {"task": "rate-curve", "environment": PER2,
                                           "grid": [0.3]})
        assert code == 3
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "SlowConvergenceError"
        assert "s" in diag["diagnostics"]
        assert "Eigenvalues did not converge" in diag["diagnostics"]["linalg"]


class TestTiltReport:
    def test_report_contents(self, tmp_path):
        code, out = run_cfg(tmp_path, {"task": "tilt-report", "environment": SYM,
                                       "r": -0.3})
        assert code == 0
        rep = json.loads((out / "tilt_report.json").read_text())
        assert rep["row_defect"] < 1e-12
        assert abs(rep["entropy_identity_residual"]) < 1e-10
        assert rep["slope"]["gap"] < 1e-4
        assert 0.0 < rep["drift"] <= 1.0
        assert rep["growth_rate"] < 0.0

    @staticmethod
    def _wide_jump_report(tmp_path) -> dict:
        laws = []
        for i in range(33):
            w = [1.0 + ((3 * i + 5 * j) % 7) / 4.0 for j in range(4)]
            laws.append({z: x / sum(w) for z, x in zip(("-2", "-1", "1", "2"), w)})
        env = {"type": "periodic", "B": 2, "laws": laws}
        code, out = run_cfg(tmp_path, {"task": "tilt-report", "environment": env, "r": -0.4})
        assert code == 0
        return json.loads((out / "tilt_report.json").read_text())

    def test_long_period_wide_jumps(self, tmp_path):
        # B=2 with 4*B*L > 256 once sent the ratio solver into unbounded recursion
        rep = self._wide_jump_report(tmp_path)
        assert rep["row_defect"] <= 1e-12
        assert math.isfinite(rep["growth_rate"])

    def test_wide_jumps_agree_with_the_polished_report(self, tmp_path):
        # the report written when a Newton polish of the row-stochasticity
        # system refined the Perron-vector ratios, as a fixture. The finite
        # difference slope.fd (and slope.gap with it) amplifies the ratios'
        # rounding by 1/h; the two defects are rounding residuals and are
        # held to their bounds instead
        got = self._wide_jump_report(tmp_path)
        want = json.loads((FIXTURES / "tilt_report_b2_L33.parent.json").read_text())
        for key in ("fd", "gap"):
            assert abs(got["slope"].pop(key) - want["slope"].pop(key)) <= 1e-9, key
        assert got.pop("row_defect") <= 1e-12
        assert abs(got.pop("entropy_identity_residual")) < 1e-10
        del want["row_defect"], want["entropy_identity_residual"]
        assert_close_tree(got, want, rel=1e-12, abs_=1e-14)

    # digests written when each reader of the tilted chain rebuilt its own
    # kernel and stationary law; building the chain once must not move a byte
    def test_committed_config_matches_pinned_report(self, tmp_path):
        out = tmp_path / "per2"
        assert main(["run", str(CONFIG_DIR / "tilt_report_per2.json"), "--out", str(out)]) == 0
        assert sha256(out / "tilt_report.json") == (
            "95ab13819d35dc6f0600bf7df32f5973a782ef4454c8149fd5a9c1de4c8456bb"
        )

    @staticmethod
    def _long_period_report(tmp_path) -> Path:
        laws = []
        for i in range(1024):
            p = 0.55 + 0.25 * ((37 * i) % 101) / 100
            laws.append({"-1": 1.0 - p, "1": p})
        env = {"type": "periodic", "B": 1, "laws": laws}
        code, out = run_cfg(tmp_path, {"task": "tilt-report", "environment": env, "r": -0.6})
        assert code == 0
        return out / "tilt_report.json"

    # digest written when the stationary class law came from GTH state
    # reduction; test_long_period_agrees_with_the_dense_report holds it to
    # the report of the dense bordered solve it replaced
    def test_long_period_matches_pinned_report(self, tmp_path):
        assert sha256(self._long_period_report(tmp_path)) == (
            "8e17eb429913402ba9cbc3019fff882c8343f81542cfd5b98525d96781dfa40e"
        )

    def test_long_period_agrees_with_the_dense_report(self, tmp_path):
        # the report the dense bordered stationary solve wrote (digest
        # 8b110736...), as a fixture: every float to 1e-12 relative or
        # 1e-14 absolute, whichever is larger
        got = json.loads(self._long_period_report(tmp_path).read_text())
        want = json.loads((FIXTURES / "tilt_report_b1_L1024.parent.json").read_text())
        assert_close_tree(got, want, rel=1e-12, abs_=1e-14)

    def test_one_chain_per_report(self, tmp_path, monkeypatch):
        # one ratio solve at r for the chain, two for the slope stencil r +- h;
        # for B = 1 each is one zeta recursion
        calls = {"zeta_nn": 0, "_kernel_rows": 0, "_stationary": 0}

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(passage, "zeta_nn", counted(passage.zeta_nn, "zeta_nn"))
        monkeypatch.setattr(tilt, "_kernel_rows", counted(tilt._kernel_rows, "_kernel_rows"))
        monkeypatch.setattr(tilt, "_stationary", counted(tilt._stationary, "_stationary"))
        env = {"type": "periodic", "B": 1,
               "laws": [{"-1": 0.3, "1": 0.7}, {"-1": 0.55, "1": 0.45}, {"-1": 0.4, "1": 0.6}]}
        code, _ = run_cfg(tmp_path, {"task": "tilt-report", "environment": env, "r": -0.35})
        assert code == 0
        assert calls == {"zeta_nn": 3, "_kernel_rows": 1, "_stationary": 1}

    def test_uncertified_ratios_exit_3_with_diagnostics(self, tmp_path, monkeypatch):
        # a ratio solve that misses row-stochasticity raises instead of
        # feeding the kernel
        solve = passage.zeta_nn

        def perturbed(env, r):
            zs = solve(env, r)
            return dataclasses.replace(zs, zeta=zs.zeta * (1.0 + 1e-6))

        monkeypatch.setattr(passage, "zeta_nn", perturbed)
        env = {"type": "periodic", "B": 1,
               "laws": [{"-1": 0.25, "1": 0.75}, {"-1": 0.65, "1": 0.35}]}
        code, out = run_cfg(tmp_path, {"task": "tilt-report", "environment": env, "r": -0.55})
        assert code == 3
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "SlowConvergenceError"
        assert diag["diagnostics"]["r"] == -0.55
        assert diag["diagnostics"]["residual"] > 1e-10

    def test_slope_mismatch_exits_3_with_diagnostics(self, tmp_path, monkeypatch):
        # a chain speed 1e-3 off the Lyapunov curve's slope
        from rwre_ldp import cli

        real = cli.stationary_speed
        monkeypatch.setattr(cli, "stationary_speed", lambda chain: real(chain) * (1 + 1e-3))
        code, out = run_cfg(tmp_path, {"task": "tilt-report", "environment": PER2, "r": -0.3})
        assert code == 3
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "DriftMismatchError"
        assert diag["task"] == "tilt-report"
        assert diag["reciprocal_slope"] == pytest.approx(diag["drift"] / (1 + 1e-3), rel=1e-4)

    def test_supercritical_tilt_exits_3_with_diagnostics(self, tmp_path, capsys):
        code, out = run_cfg(tmp_path, {"task": "tilt-report", "environment": PER2,
                                       "r": 0.5})
        assert code == 3
        assert "divergence" in capsys.readouterr().err
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "SupercriticalError"
        assert diag["task"] == "tilt-report"
        assert diag["r"] == 0.5


class TestLevel2Min:
    def test_artifacts(self, tmp_path):
        code, out = run_cfg(tmp_path, {"task": "level2-min", "environment": PER2,
                                       "xi": 0.3, "tolerance": 1e-10})
        assert code == 0
        _, header, rows = read_csv(out / "pair_measure.csv")
        assert header == ["site_class", "offset", "weight"]
        assert len(rows) == 2 * 2  # L classes x 2B offsets
        assert sum(float(r[2]) for r in rows) == pytest.approx(1.0, abs=1e-12)
        rep = json.loads((out / "minimize_report.json").read_text())
        assert rep["converged"]
        assert rep["residuals"]["drift_gap"] < 1e-10
        assert rep["residuals"]["shift_defect"] < 1e-10

    def test_infeasible_drift_exits_3(self, tmp_path):
        code, out = run_cfg(tmp_path, {"task": "level2-min", "environment": PER2,
                                       "xi": 1.5})
        assert code == 3
        diag = json.loads((out / "diagnostics.json").read_text())
        assert (diag["xi_min"], diag["xi_max"]) == (-1.0, 1.0)


@pytest.fixture(scope="module")
def mc_run(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("mc")
    cfg = {"task": "mc-verify", "environment": PER2, "seed": 42, "mc": MC_SMALL}
    return run_cfg(tmp, cfg), tmp, cfg


class TestMcVerify:
    def test_all_gates_pass(self, mc_run):
        (code, out), _, _ = mc_run
        assert code == 0
        rep = json.loads((out / "mc_summary.json").read_text())
        assert rep["all_passed"]
        assert "wall_time_s" not in rep

    def test_report_lines(self, mc_run):
        (_, out), _, _ = mc_run
        lines = (out / "mc_report.jsonl").read_text().splitlines()
        head = json.loads(lines[0])
        assert set(head) == {"_meta"}
        names = []
        for line in lines[1:]:
            rec = json.loads(line)
            assert {"name", "observed", "expected", "z", "passed"} <= set(rec)
            names.append(rec["name"])
        assert tuple(names) == mc.STANDARD_CHECKS

    def test_rerun_is_byte_identical(self, mc_run, tmp_path):
        (_, out), _, cfg = mc_run
        _, out2 = run_cfg(tmp_path, cfg, name="again.json")
        for name in ("mc_report.jsonl", "mc_summary.json"):
            assert (out2 / name).read_bytes() == (out / name).read_bytes()

    def test_committed_config_matches_pinned_artifacts(self, tmp_path):
        # digests written by the kernels that drew for every walker at every
        # step; skipping the draws of arrived walkers must not move a byte.
        # mc_report.jsonl was re-pinned when r_c came from the drift-root
        # search: only its moment-envelope row moved (test_rc_pins)
        out = tmp_path / "per2"
        assert main(["run", str(CONFIG_DIR / "mc_verify_per2.json"), "--out", str(out)]) == 0
        digest = {name: sha256(out / name) for name in ("mc_report.jsonl", "mc_summary.json")}
        assert digest == {
            "mc_report.jsonl": "a19b4dcf50b4ad4412f6975e6e3f2e08a1c811821455e9a2c328631dc01b0a8b",
            "mc_summary.json": "9bd7de245cf532914e38ee39b9a1c657e225d99495692e32d798a9734f83e1fe",
        }

    def test_b2_run_matches_pinned_artifacts(self, tmp_path):
        # digests written when both velocity checks read the tilted chain at
        # zero, and passage-lln its finite-difference slope cross-check;
        # mc_report.jsonl re-pinned as the per2 one above
        cfg = {"task": "mc-verify", "environment": B2_DRIFTED, "seed": 7, "mc": MC_TINY}
        code, out = run_cfg(tmp_path, cfg)
        assert code == 0
        digest = {name: sha256(out / name) for name in ("mc_report.jsonl", "mc_summary.json")}
        assert digest == {
            "mc_report.jsonl": "dc79ee647f4c248fdf7188f96920b0c67c7781ef0f372581df967a70f8c54901",
            "mc_summary.json": "d4fc7ee1714e33284336a032300bd25c59ac4f7eacfe54adc81d0c59fe77f267",
        }

    @pytest.mark.parametrize("env, solve", [(PER2, "zeta_nn"), (B2_DRIFTED, "_perron_root")],
                             ids=["per2", "b2"])
    def test_one_chain_per_tilted_check(self, tmp_path, monkeypatch, env, solve):
        # the velocity checks read tilt.velocity; tilted-drift and
        # corrector-path each build the one chain they read, from one ratio
        # solve at r (a zeta recursion for B = 1, a Perron root for B >= 2)
        calls = {"_kernel_rows": 0, solve: 0}

        def counted(fn, name):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(tilt, "_kernel_rows", counted(tilt._kernel_rows, "_kernel_rows"))
        monkeypatch.setattr(passage, solve, counted(getattr(passage, solve), solve))
        code, _ = run_cfg(tmp_path, {"task": "mc-verify", "environment": env, "seed": 7,
                                     "mc": MC_TINY})
        assert code == 0
        assert calls == {"_kernel_rows": 2, solve: 2}

    @pytest.mark.parametrize("checks", [None, ["passage-lln"], ["mgf-match", "empirical-velocity"]])
    @pytest.mark.parametrize("env", [PER2_LEFT, PER3_B2_LEFT, SYM], ids=["per2", "b2", "sym"])
    def test_velocity_checks_refuse_a_walk_that_does_not_move_right(
        self, tmp_path, capsys, env, checks
    ):
        # passage-lln's walkers must reach levels to the right, so it refuses
        # such a walk; empirical-velocity compares with tilt.velocity, which
        # holds in either direction, and runs
        mc_block = {"n_steps": 2000, "n_walkers": 50}
        if checks is not None:
            mc_block["checks"] = checks
        code, out = run_cfg(tmp_path, {"task": "mc-verify", "environment": env, "seed": 1,
                                       "mc": mc_block})
        err = capsys.readouterr().err
        if checks is None or "passage-lln" in checks:
            assert code == 2
            assert "config key 'mc.checks'" in err and "passage-lln" in err
            return
        assert code == 0
        rows = [json.loads(line) for line in (out / "mc_report.jsonl").read_text().splitlines()[1:]]
        velocity_row = next(r for r in rows if r["name"] == "empirical-velocity")
        assert velocity_row["passed"]
        assert velocity_row["expected"] == tilt.velocity(env_from_json(env)) <= 0.0

    def test_statistical_failures_warn_by_default(self, tmp_path, capsys):
        cfg = {"task": "mc-verify", "environment": PER2, "seed": 42,
               "mc": dict(MC_SMALL, gate=0.5)}
        code, _ = run_cfg(tmp_path, cfg)
        assert code == 0
        assert "statistical gate failed" in capsys.readouterr().err

    def test_stderr_holds_only_the_warnings(self, tmp_path, capsys):
        # nothing that changes from run to run, such as a wall time
        cfg = {"task": "mc-verify", "environment": PER2, "seed": 42,
               "mc": dict(MC_TINY, gate=0.5)}
        code, _ = run_cfg(tmp_path, cfg)
        assert code == 0
        lines = capsys.readouterr().err.splitlines()
        assert lines and all(line.startswith("warning: statistical gate failed: ")
                             for line in lines)

    def test_strict_promotes_warnings(self, tmp_path):
        cfg = {"task": "mc-verify", "environment": PER2, "seed": 42,
               "mc": dict(MC_SMALL, gate=0.5)}
        code, _ = run_cfg(tmp_path, cfg, "--strict")
        assert code == 1


class TestCounterexample:
    def test_wide_law_with_unit_jump_control(self, tmp_path):
        cfg = {"task": "counterexample", "environment": WIDE,
               "control_environment": PER2}
        code, out = run_cfg(tmp_path, cfg)
        assert code == 0
        _, header, rows = read_csv(out / "counterexample.csv")
        assert header == ["r", "lambda", "lambda_bar", "gap"]
        gaps = [float(r[3]) for r in rows]
        assert max(gaps) - min(gaps) > 1e-3
        body = (out / "counterexample.txt").read_text()
        assert "DEPENDS" in body
        assert "control" in body
        rep = json.loads((out / "counterexample.json").read_text())
        assert rep["varies"]
        assert rep["control_variation"] < 1e-8

    def test_unit_jumps_trip_the_invariant(self, tmp_path, capsys):
        code, _ = run_cfg(tmp_path, {"task": "counterexample", "environment": PER2})
        assert code == 4
        assert "invariant violation" in capsys.readouterr().err

    def test_verdict_does_not_depend_on_the_order_of_the_tilts(self, tmp_path):
        # r = 0.5 is beyond r_c: both rates are +inf and its gap is nan,
        # which the variation leaves out wherever the tilt comes in the grid
        reports = []
        for k, rs in enumerate(([-1.0, -0.5, 0.5], [0.5, -1.0, -0.5])):
            cfg = {"task": "counterexample", "environment": B2_DRIFTED,
                   "control_environment": PER2, "r_values": rs}
            code, out = run_cfg(tmp_path, cfg, name=f"order{k}.json")
            rep = json.loads((out / "counterexample.json").read_text())
            del rep["_meta"]
            reports.append((code, rep))
        assert reports[0] == reports[1]
        code, rep = reports[0]
        assert code == 0
        assert rep["variation"] == pytest.approx(0.0169, abs=1e-4) and rep["varies"]

    def test_one_finite_tilt_is_a_hard_failure(self, tmp_path, capsys):
        cfg = {"task": "counterexample", "environment": B2_DRIFTED,
               "control_environment": PER2, "r_values": [0.5, -1.0]}
        code, out = run_cfg(tmp_path, cfg)
        assert code == 4
        err = capsys.readouterr().err
        assert "direction gap is finite at fewer than two tilts; its variation needs two" in err
        assert "control direction gap is finite at fewer than two tilts" in err
        assert json.loads((out / "counterexample.json").read_text())["variation"] == "nan"
        assert "verdict: undefined: direction gap is finite at fewer than two tilts" in (
            out / "counterexample.txt").read_text()


class TestSymmetryCheck:
    def test_unit_jump_skew_identity(self, tmp_path):
        cfg = {"task": "symmetry-check", "environment": PER2,
               "grid": [0.3, 0.6], "tolerance": 1e-7}
        code, out = run_cfg(tmp_path, cfg)
        assert code == 0
        rep = json.loads((out / "symmetry_check.json").read_text())
        assert rep["unit_jumps_only"]
        assert rep["max_defect"] < 1e-10
        assert len(rep["rows"]) == 2
        row = rep["rows"][0]
        assert row["gap"] == pytest.approx(row["predicted"], abs=1e-10)

    def test_committed_config_matches_pinned_report(self, tmp_path):
        # digest written when the leftward rates came to be solved on the
        # environment's own Lambda, not its reflection's; test_mirror_pins
        # holds it to the report of the reflection route (digest 66818b8d...),
        # and test_agrees_with_the_dgeev_report to that of the dgeev core
        out = tmp_path / "per3"
        assert main(["run", str(CONFIG_DIR / "symmetry_check_per3.json"), "--out", str(out)]) == 0
        assert sha256(out / "symmetry_check.json") == (
            "8e578a2574c8e3d25acd982100310715ba06000be29a3018a900d06861af976b"
        )

    def test_agrees_with_the_dgeev_report(self, tmp_path):
        # the report the dgeev Perron core wrote (digest 7073f6cc...), as a
        # fixture: every float to 1e-12 relative or 1e-14 absolute,
        # whichever is larger (the defects are rounding residuals near 1e-16)
        out = tmp_path / "per3"
        assert main(["run", str(CONFIG_DIR / "symmetry_check_per3.json"), "--out", str(out)]) == 0
        got = json.loads((out / "symmetry_check.json").read_text())
        want = json.loads((FIXTURES / "symmetry_check_per3.parent.json").read_text())
        assert_close_tree(got, want, rel=1e-12, abs_=1e-14)

    def test_rejects_nonpositive_speeds(self, tmp_path):
        cfg = {"task": "symmetry-check", "environment": PER2,
               "grid": [0.0, 0.5]}
        code, _ = run_cfg(tmp_path, cfg)
        assert code == 2


# digests of every artifact of the committed configs whose runs read the
# harmonic ratios and Lyapunov grids, written while a periodic `u_limit`
# and `lyapunov_grid` reached the ratios by two separate paths;
# lambda_curve.json (its r_c block) and rate_curve.csv (the branch of its
# zero-speed row) were re-pinned when r_c came from the drift-root search
# (test_rc_pins); lambda_curve.json and rate_curve.json again when they
# stopped writing the reflected r_c fields, and counterexample.csv and
# counterexample.txt when lambda_bar became the smaller root of
# Lambda(s) = -r on the environment itself (test_left_root_pins)
COMMITTED_DIGESTS = {
    "lambda_curve_per2.json": {
        "lambda_curve.csv": "c09548118ff8731d4f9f5ceb908e60c4ce808b61f7c87f9bac756c436cbf2a0e",
        "lambda_curve.json": "00047705f83057a75184070a69c2ae9fa0cb937730433355b8d8187adad85559",
    },
    "counterexample_sevenths.json": {
        "counterexample.csv": "cbc3015768a4738ede175ea0a57d8f9b027f542218403d7ee705386a63970ca0",
        "counterexample.json": "44695c912e4330decf5deae87863b7e6058a9f5c67f0893f690ee9365474aeb9",
        "counterexample.txt": "9b0a94c00981e2c4d8c4cfbeb30c3aefad210b29b53d2558012dd7cbb17623a5",
    },
    "rate_curve_sym.json": {
        "rate_curve.csv": "6e875b32d419da99168f22778f5f39aabd4ee107bb6f88ee672d11435295e109",
        "rate_curve.json": "904e75104c8db7cf1faadfc156150a6e172ce2e1225fc017aa99ab5efc39ae20",
    },
}


@pytest.mark.parametrize("config", sorted(COMMITTED_DIGESTS))
def test_committed_curve_config_matches_pinned_artifacts(tmp_path, config):
    out = tmp_path / "out"
    assert main(["run", str(CONFIG_DIR / config), "--out", str(out)]) == 0
    assert {path.name: sha256(path) for path in out.iterdir()} == COMMITTED_DIGESTS[config]


class TestThreadsFlag:
    def test_refuses_the_flag(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"task": "lambda-curve", "environment": SYM,
                                   "grid": [-0.5]}))
        with pytest.raises(SystemExit) as exc:
            main(["run", str(cfg), "--threads", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    def test_run_ignores_the_threads_keyword(self, mc_run, tmp_path):
        # perfbench/worker.py calls cli.run(..., threads=t.threads)
        (_, out), tmp, _ = mc_run
        assert cli.run(tmp / "cfg.json", strict=True, out_dir=tmp_path, threads=2) == 0
        for name in ("mc_report.jsonl", "mc_summary.json"):
            assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


SCIPY_FREE_PROBE = textwrap.dedent(
    """
    import json
    import sys
    from pathlib import Path

    import rwre_ldp.cli as cli

    def scipy_modules():
        return sorted(m for m in sys.modules if m.startswith("scipy"))

    configs, out = Path(sys.argv[1]), Path(sys.argv[2])
    codes = {p.name: cli.run(p, out_dir=out / p.stem) for p in sorted(configs.glob("*.json"))}
    after_cli = scipy_modules()

    from rwre_ldp import level2, rate, tilt
    from rwre_ldp.environment import JumpLaw, homogeneous, periodic

    law = JumpLaw(b=1, probs=((-1, 0.5), (1, 0.5)))
    drift_range = level2.drift_range(homogeneous(law))
    cramer = rate.cramer_oracle(law, 0.5)
    per2 = periodic([JumpLaw(b=1, probs=((-1, 0.2), (1, 0.8))),
                     JumpLaw(b=1, probs=((-1, 0.6), (1, 0.4)))])
    chain = tilt.tilted_chain(per2, -0.3)
    occ = tilt.occupation_density(chain)
    exact = tilt.invariant_density(chain)
    print(json.dumps({
        "codes": codes,
        "after_cli": after_cli,
        "drift_range": drift_range,
        "cramer": cramer,
        "occupation_gap": float(abs(occ.stat - exact.stat).max()),
        "loaded": {m: m in sys.modules for m in ("scipy.optimize", "scipy.linalg")},
    }))
    """
)


def test_cli_runs_without_scipy(tmp_path):
    # a fresh interpreter: import and every committed config must not load
    # any scipy module, while the LP, Cramer and banded-occupation oracles
    # still work and load scipy when they run
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_FREE_PROBE, str(CONFIG_DIR), str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    rep = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(rep["codes"]) == sorted(p.name for p in CONFIG_DIR.glob("*.json"))
    assert {"mc_verify_per2.json", "tilt_report_per2.json",
            "counterexample_sevenths.json"} <= set(rep["codes"])
    assert all(code == 0 for code in rep["codes"].values()), rep["codes"]
    assert rep["after_cli"] == []
    assert rep["drift_range"] == pytest.approx([-1.0, 1.0], abs=1e-9)
    assert rep["cramer"] == pytest.approx(0.13081203594113697, abs=1e-12)
    assert rep["occupation_gap"] < 1e-6
    assert rep["loaded"] == {"scipy.optimize": True, "scipy.linalg": True}


@pytest.mark.parametrize("arr", [
    np.linspace(-1.0, 1.0, 7) / 3.0,
    np.arange(12.0).reshape(3, 4) * 0.1,
    np.array([0.5, np.nan, -np.inf, np.inf]),
    np.array([[1.5, np.nan], [2.5, 3.5]]),
    np.array([0.1, 0.2], dtype=np.float32),
    np.array([1, -2, 3]),
    np.array([True, False]),
    np.zeros((0, 2)),
], ids=["1d", "2d", "nonfinite", "nonfinite-2d", "float32", "int", "bool", "empty"])
def test_jsonable_array_writes_what_the_element_walk_writes(arr):
    # an all-finite float array goes out through one tolist(); the text is
    # the walk over its entries, which keeps non-finite floats as strings
    from rwre_ldp.cli import _jsonable

    walked = [_jsonable(v) for v in arr.tolist()]
    assert json.dumps(_jsonable({"a": arr})) == json.dumps({"a": walked})
