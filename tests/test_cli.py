"""Batch front end: config validation, artifacts, exit codes, determinism."""

import hashlib
import json
import math
from pathlib import Path

import pytest

from rwre_ldp import mc
from rwre_ldp.cli import main, parse_config

SYM = {"type": "homogeneous", "B": 1, "laws": [{"-1": 0.5, "1": 0.5}]}
PER2 = {
    "type": "periodic",
    "B": 1,
    "laws": [{"-1": 0.2, "1": 0.8}, {"-1": 0.6, "1": 0.4}],
}
WIDE = {
    "type": "homogeneous",
    "B": 2,
    "laws": [{"-2": 0.1, "-1": 0.2, "1": 0.5, "2": 0.2}],
}
MC_SMALL = {"n_steps": 1500, "n_walkers": 80, "mgf_walkers": 15000, "level": 6, "r": -0.3}


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

    def test_unknown_mc_check_name(self, tmp_path, capsys):
        cfg = {"task": "mc-verify", "environment": SYM, "seed": 1,
               "mc": {"checks": ["empirical-velocity", "coin-flip"]}}
        code, _ = run_cfg(tmp_path, cfg)
        assert code == 2
        assert "mc.checks" in capsys.readouterr().err

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", str(path)]) == 2

    def test_missing_config_file(self, tmp_path):
        assert main(["run", str(tmp_path / "absent.json")]) == 2

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
        assert by_xi[0.0][3] == "zero"
        assert all(r[4] == "0" for r in rows)

    def test_summary_reports_both_directions(self, rate_run):
        _, out = rate_run
        rep = json.loads((out / "rate_curve.json").read_text())
        assert rep["convex_ok"]
        # symmetric law: both orientations share the threshold and it sits
        # at zero speed
        assert rep["rc"]["value"] == pytest.approx(rep["rc_reflected"]["value"], abs=1e-6)
        assert rep["xi_critical"] == pytest.approx(0.0, abs=1e-3)


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

    def test_long_period_wide_jumps(self, tmp_path):
        # B=2 with 4*B*L > 256 once sent the ratio solver into unbounded recursion
        laws = []
        for i in range(33):
            w = [1.0 + ((3 * i + 5 * j) % 7) / 4.0 for j in range(4)]
            laws.append({z: x / sum(w) for z, x in zip(("-2", "-1", "1", "2"), w)})
        env = {"type": "periodic", "B": 2, "laws": laws}
        code, out = run_cfg(tmp_path, {"task": "tilt-report", "environment": env, "r": -0.4})
        assert code == 0
        rep = json.loads((out / "tilt_report.json").read_text())
        assert rep["row_defect"] <= 1e-12
        assert math.isfinite(rep["growth_rate"])

    def test_supercritical_tilt_exits_3_with_diagnostics(self, tmp_path, capsys):
        code, out = run_cfg(tmp_path, {"task": "tilt-report", "environment": PER2,
                                       "r": 0.5})
        assert code == 3
        assert "divergence" in capsys.readouterr().err
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["error"] == "SupercriticalError"
        assert diag["task"] == "tilt-report"


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
        assert (out / "diagnostics.json").exists()


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

    def test_rerun_and_threads_are_byte_identical(self, mc_run, tmp_path):
        (_, out), _, cfg = mc_run
        _, out2 = run_cfg(tmp_path, cfg, name="again.json")
        _, out4 = run_cfg(tmp_path, cfg, "--threads", "4", name="par.json")
        for name in ("mc_report.jsonl", "mc_summary.json"):
            blob = (out / name).read_bytes()
            assert (out2 / name).read_bytes() == blob
            assert (out4 / name).read_bytes() == blob

    def test_committed_config_matches_pinned_artifacts(self, tmp_path):
        # digests written by the kernels that drew for every walker at every
        # step; skipping the draws of arrived walkers must not move a byte
        config = Path(__file__).resolve().parents[1] / "configs" / "mc_verify_per2.json"
        out = tmp_path / "per2"
        assert main(["run", str(config), "--out", str(out)]) == 0
        digest = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                  for name in ("mc_report.jsonl", "mc_summary.json")}
        assert digest == {
            "mc_report.jsonl": "83852f5331430ef8a4584a19d6b258e8ff9fa8a5080eb19c1a05e216a3c75049",
            "mc_summary.json": "9bd7de245cf532914e38ee39b9a1c657e225d99495692e32d798a9734f83e1fe",
        }

    def test_statistical_failures_warn_by_default(self, tmp_path, capsys):
        cfg = {"task": "mc-verify", "environment": PER2, "seed": 42,
               "mc": dict(MC_SMALL, gate=0.5)}
        code, _ = run_cfg(tmp_path, cfg)
        assert code == 0
        assert "statistical gate failed" in capsys.readouterr().err

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

    def test_rejects_nonpositive_speeds(self, tmp_path):
        cfg = {"task": "symmetry-check", "environment": PER2,
               "grid": [0.0, 0.5]}
        code, _ = run_cfg(tmp_path, cfg)
        assert code == 2


class TestThreadsFlag:
    def test_analytic_tasks_note_serial_execution(self, tmp_path, capsys):
        cfg = {"task": "lambda-curve", "environment": SYM, "grid": [-0.5]}
        code, _ = run_cfg(tmp_path, cfg, "--threads", "4")
        assert code == 0
        assert "byte-deterministic" in capsys.readouterr().err

    def test_rejects_nonpositive_threads(self, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"task": "lambda-curve", "environment": SYM,
                                   "grid": [-0.5]}))
        with pytest.raises(SystemExit):
            main(["run", str(cfg), "--threads", "0"])
