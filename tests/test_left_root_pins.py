"""Direction-gap, Lambda-curve and rate-curve artifacts, held to the values
written while left-passage growth rates came from the reflected
environment and the artifacts carried reflected r_c fields.

`fixtures/left_root.parent.json` holds those artifacts: the committed
counterexample, lambda-curve and rate-curve configs, and the counterexample
tasks and the rate and Lambda curves of both benchmark workloads (seeds 1
and 23). Each config is run again, and
- every lambda is the same to the byte;
- every lambda_bar lies within 1e-12 relative of the stored one;
- every gap and gap variation lies within 1e-12 of the stored one;
- the reflected r_c fields of a Perron estimate (`rc_reflected`,
  `xi_critical_reflected`, and the `bracket_reflected` and `reflect_gap` of
  an r_c block) are no longer written: the fixture shows each repeating a
  forward value;
- every other value is the same to the byte.
"""

import json
from pathlib import Path

import pytest

from .test_cli import run_cfg
from .test_rc_pins import DROPPED, forward_only, near

ROOT = Path(__file__).resolve().parents[1]
CASES = json.loads((Path(__file__).parent / "fixtures" / "left_root.parent.json").read_text())["cases"]
VARIATIONS = ("variation", "control_variation")
# the lines of counterexample.txt that print a gap variation
VARIATION_LINES = ("gap variation over the grid", "control gap variation")


def check_gap_row(new: list[str], old: list[str]) -> None:
    """Cells r, lambda, lambda_bar, gap of a direction-gap table row."""
    assert new[:2] == old[:2], (new, old)
    assert near(float(new[2]), float(old[2]), 0.0), (new, old)
    assert abs(float(new[3]) - float(old[3])) <= 1e-12, (new, old)


def is_gap_row(line: str) -> bool:
    cells = line.split()
    if len(cells) != 4:
        return False
    try:
        [float(c) for c in cells]
    except ValueError:
        return False
    return True


def check_text(got: list[str], want: list[str]) -> None:
    # line 0 holds the sha256 of the config file, which is written anew
    assert len(got) == len(want)
    for new, old in zip(got[1:], want[1:]):
        head, _, value = old.rpartition(": ")
        if head in VARIATION_LINES:
            n_head, _, n_value = new.rpartition(": ")
            assert n_head == head and abs(float(n_value) - float(value)) <= 1e-12, (new, old)
        elif is_gap_row(old):
            check_gap_row(new.split(), old.split())
        else:
            assert new == old


def check_json(name: str, got: dict, want: dict) -> None:
    if name != "counterexample.json":
        assert got == {**forward_only(want), "_meta": got["_meta"]}
        return
    assert sorted(got) == sorted(want)
    for key in VARIATIONS:
        if key in want:
            assert abs(got[key] - want[key]) <= 1e-12, (key, got[key], want[key])
    rest = [k for k in want if k not in VARIATIONS and k != "_meta"]
    assert {k: got[k] for k in rest} == {k: want[k] for k in rest}


def test_the_fixture_shows_each_reflected_field_repeating_a_forward_value():
    seen = set()
    for case in CASES:
        for name, art in case["artifacts"].items():
            if name == "rate_curve.json":
                assert art["rc_reflected"] == art["rc"], case["name"]
                assert art["xi_critical_reflected"] == -art["xi_critical"], case["name"]
                seen.update(("rc_reflected", "xi_critical_reflected"))
            elif name == "lambda_curve.json":
                rc = art["rc"]
                assert rc["predicate"] == "perron"
                assert rc["bracket_reflected"] == rc["bracket"], case["name"]
                assert rc["reflect_gap"] == 0.0, case["name"]
                seen.update(("bracket_reflected", "reflect_gap"))
    assert seen == set(DROPPED)
    # the nonzero critical drifts make the mirror a claim about signs
    assert any(
        art["xi_critical"] != 0.0
        for case in CASES
        for name, art in case["artifacts"].items()
        if name == "rate_curve.json"
    )


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_values_hold_to_the_reflection_route(tmp_path, case):
    raw = case["config"]
    if raw is None:  # a committed config
        raw = json.loads((ROOT / case["name"]).read_text())
        raw.pop("out_dir", None)
    code, out = run_cfg(tmp_path, raw)
    assert code == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(case["artifacts"])
    for name, want in case["artifacts"].items():
        text = (out / name).read_text()
        if name.endswith(".json"):
            check_json(name, json.loads(text), want)
        elif name == "counterexample.csv":
            got = text.splitlines()
            assert got[1] == want[1] and len(got) == len(want)
            for new, old in zip(got[2:], want[2:]):
                check_gap_row(new.split(","), old.split(","))
        elif name == "counterexample.txt":
            check_text(text.splitlines(), want)
        else:
            assert text.splitlines()[1:] == want[1:], name
