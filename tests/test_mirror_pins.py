"""Artifacts of leftward speeds, held to the values written while they were
solved on the reflected environment.

`fixtures/mirror_rates.parent.json` holds the artifacts that moved when
leftward speeds and the reflection's threshold came to be solved on the
environment's own Lambda: the committed symmetry-check config, and the
L = 3 rate curves and L = 4 symmetry check of the rate-sweep benchmark
workload (seeds 1 and 23). The reflection's K_s is K_{-s} with its classes
permuted, so LAPACK sees another matrix and the last bits move. Each config
is run again, and
- every rate and r_star lies within 1e-12 relative of the stored one;
- every gap, defect and max_defect (differences of rates below 1) lies
  within 1e-12 of the stored one;
- every value read off r_c is held as test_rc_pins holds it;
- every other value is the same to the byte.
"""

import json
from pathlib import Path

import pytest

from rwre_ldp.cli import parse_config

from .test_cli import run_cfg
from .test_rc_pins import check_json, near, near_text

ROOT = Path(__file__).resolve().parents[1]
CASES = json.loads((Path(__file__).parent / "fixtures" / "mirror_rates.parent.json").read_text())["cases"]
RATES = ("rate_left", "rate_right")
DIFFERENCES = ("gap", "defect")


def check_rate_rows(got: list[str], want: list[str]) -> None:
    # line 0 holds the sha256 of the config file, which is written anew
    assert got[1:2] == want[1:2] and len(got) == len(want)
    for new, old in zip(got[2:], want[2:]):
        xi, value, r_star, branch, flag = old.split(",")
        n_xi, n_value, n_r_star, n_branch, n_flag = new.split(",")
        assert (n_xi, n_branch, n_flag) == (xi, branch, flag)
        assert near_text(n_value, value, 0.0) and near_text(n_r_star, r_star, 0.0), (new, old)


def check_symmetry(got: dict, want: dict) -> None:
    assert sorted(got) == sorted(want)
    assert abs(got["max_defect"] - want["max_defect"]) <= 1e-12
    rest = [k for k in want if k not in ("_meta", "max_defect", "rows")]
    assert {k: got[k] for k in rest} == {k: want[k] for k in rest}
    assert len(got["rows"]) == len(want["rows"])
    for new, old in zip(got["rows"], want["rows"]):
        assert sorted(new) == sorted(old)
        for key, value in old.items():
            if key in RATES:
                assert near(new[key], value, 0.0), (key, new[key], value)
            elif key in DIFFERENCES:
                assert abs(new[key] - value) <= 1e-12, (key, new[key], value)
            else:
                assert new[key] == value, key


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_leftward_values_hold_to_the_reflection_route(tmp_path, case):
    raw = case["config"]
    if raw is None:  # a committed config
        raw = json.loads((ROOT / case["name"]).read_text())
        raw.pop("out_dir", None)
    code, out = run_cfg(tmp_path, raw)
    assert code == 0
    for name, want in case["artifacts"].items():
        text = (out / name).read_text()
        if name == "rate_curve.csv":
            check_rate_rows(text.splitlines(), want)
        elif name == "rate_curve.json":
            check_json(json.loads(text), want, parse_config(raw, "").rc_tol)
        else:
            check_symmetry(json.loads(text), want)
