"""Artifacts whose values are read off an r_c search, held to the values
written while r_c came from a bisection on the sign of Lambda'.

`fixtures/rc_search.parent.json` holds those artifacts: the committed
configs that print an r_c bracket, the moment-envelope check of the B = 2
mc-verify run in test_cli, and the rate and Lambda curves and mc-verify
tasks of the benchmark workloads (seeds 1 and 23). Each config is run
again, and
- every r_c bracket overlaps the stored one and is at most rc_tol wide;
- every value read off r_c (its midpoint, the critical drift, the
  zero-speed row of a rate curve) lies within max(1e-12 relative, rc_tol)
  of the stored one;
- the reflected r_c fields of these Perron estimates are no longer written
  (test_left_root_pins shows each repeating a forward value);
- every rate and r_star of a leftward speed lies within 1e-12 relative of
  the stored one: those speeds are solved on the environment's own Lambda
  now, not on the reflection's, and test_mirror_pins holds them to the
  reflection route's last values;
- the moment-envelope midpoint tilt, set off a bracket of width 1e-4, lies
  within 5e-5 of the stored one, and the check's verdict is unchanged;
- every other value is the same to the byte.
"""

import json
import math
from pathlib import Path

import pytest

from rwre_ldp.cli import parse_config

from .test_cli import run_cfg

ROOT = Path(__file__).resolve().parents[1]
CASES = json.loads((Path(__file__).parent / "fixtures" / "rc_search.parent.json").read_text())["cases"]
RC_BLOCKS = ("rc",)
RC_VALUES = ("xi_critical",)
# the reflected r_c fields a Perron estimate no longer writes
DROPPED = ("rc_reflected", "xi_critical_reflected", "bracket_reflected", "reflect_gap")


def forward_only(art: dict) -> dict:
    """A JSON artifact without the reflected r_c fields, in every block."""
    return {
        k: forward_only(v) if isinstance(v, dict) else v
        for k, v in art.items()
        if k not in DROPPED
    }


def near(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= max(1e-12 * abs(want), tol)


def check_bracket(got, want, tol: float) -> None:
    lo, hi = got
    assert hi - lo <= tol, (got, tol)
    assert lo <= want[1] and want[0] <= hi, (got, want)


def check_json(got: dict, want: dict, tol: float) -> None:
    want = forward_only(want)
    assert sorted(got) == sorted(want)
    for key, old in want.items():
        new = got[key]
        if key == "_meta":
            continue
        if key in RC_BLOCKS:
            assert sorted(new) == sorted(old)
            for field, value in old.items():
                if field.startswith("bracket"):
                    check_bracket(new[field], value, tol)
                elif isinstance(value, float):
                    assert near(new[field], value, tol), (key, field, new[field], value)
                else:
                    assert new[field] == value, (key, field)
        elif key in RC_VALUES:
            assert near(new, old, tol), (key, new, old)
        else:
            assert new == old, key


def near_text(got: str, want: str, tol: float) -> bool:
    """A CSV cell: the same text (inf and nan among them), or near."""
    return got == want or near(float(got), float(want), tol)


def check_rate_rows(got: list[str], want: list[str], tol: float) -> None:
    assert got[1:2] == want[1:2] and len(got) == len(want)
    for new, old in zip(got[2:], want[2:]):
        xi, value, r_star, branch, flag = old.split(",")
        if float(xi) > 0.0:
            assert new == old
            continue
        n_xi, n_value, n_r_star, n_branch, n_flag = new.split(",")
        assert (n_xi, n_flag) == (xi, flag)
        if float(xi) < 0.0:
            assert n_branch == branch
            assert near_text(n_value, value, 0.0) and near_text(n_r_star, r_star, 0.0), (new, old)
            continue
        assert (branch, n_branch) == ("zero", "interior")
        assert near(float(n_value), float(value), tol) and near(float(n_r_star), float(r_star), tol)


def check_mc_rows(got: list[dict], want: list[dict]) -> None:
    assert len(got) == len(want)
    for new, old in zip(got[1:], want[1:]):
        if old["name"] != "moment-envelope":
            assert new == old
            continue
        assert sorted(new) == sorted(old)
        assert abs(new["midpoint_tilt"] - old["midpoint_tilt"]) <= 5e-5
        assert new["passed"] == old["passed"]
        assert math.isfinite(new["expected"]) and math.isfinite(new["z"])
        moved = {"midpoint_tilt", "expected", "z"}
        assert {k: v for k, v in new.items() if k not in moved} == {
            k: v for k, v in old.items() if k not in moved
        }


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_rc_values_hold_to_the_parent(tmp_path, case):
    raw = case["config"]
    if raw is None:  # a committed config
        raw = json.loads((ROOT / case["name"]).read_text())
        raw.pop("out_dir", None)
    tol = parse_config(raw, "").rc_tol
    code, out = run_cfg(tmp_path, raw)
    assert code == 0
    for name, want in case["artifacts"].items():
        text = (out / name).read_text()
        if name.endswith(".csv"):
            check_rate_rows(text.splitlines(), want, tol)
        elif name.endswith(".jsonl"):
            check_mc_rows([json.loads(line) for line in text.splitlines()], want)
        else:
            check_json(json.loads(text), want, tol)
