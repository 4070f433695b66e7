"""Rate function as the Legendre transform of the Perron core, checked
against one-step Legendre transforms (exact for homogeneous environments),
the constrained pair-entropy minimizer, closed-form thresholds, and boundary
values read off the jump probabilities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre_ldp import level2
from rwre_ldp.environment import JumpLaw, homogeneous, periodic, reflect, sample_iid
from rwre_ldp.rate import (
    asymmetry_demo,
    cramer_oracle,
    rate,
    rate_curve,
    symmetry_gap,
    xi_critical,
)

from .strategies import environments

SYM_NN = homogeneous(JumpLaw(b=1, probs=((-1, 0.5), (1, 0.5))))
BIASED_NN = homogeneous(JumpLaw(b=1, probs=((-1, 0.25), (1, 0.75))))
PER2_NN = periodic(
    [
        JumpLaw(b=1, probs=((-1, 0.2), (1, 0.8))),
        JumpLaw(b=1, probs=((-1, 0.6), (1, 0.4))),
    ]
)
WIDE_LAW = JumpLaw(b=2, probs=((-2, 1 / 7), (-1, 3 / 7), (1, 1 / 7), (2, 2 / 7)))
WIDE = homogeneous(WIDE_LAW)
# class 2 has no -2 jump, so the attainable drifts are [-1.5, 2.0]
B2_NO_MINUS2 = periodic(
    [
        JumpLaw(b=2, probs=((-2, 0.1), (-1, 0.3), (1, 0.3), (2, 0.3))),
        JumpLaw(b=2, probs=((-2, 0.2), (-1, 0.3), (1, 0.25), (2, 0.25))),
        JumpLaw(b=2, probs=((-1, 0.35), (1, 0.35), (2, 0.3))),
    ]
)

# 0.5*atanh(1/2) + 0.5*log(3/4), the dual value of the symmetric walk at
# half speed
CRAMER_SYM_HALF = 0.13081203594113697
# -log(2 sqrt(p q)) for p = 3/4: threshold of the biased walk, also its
# zero-speed cost
BIASED_RC = 0.14384103622589045


class TestCramerOracle:
    def test_symmetric_half_speed_closed_form(self):
        assert cramer_oracle(SYM_NN.laws[0], 0.5) == pytest.approx(
            CRAMER_SYM_HALF, abs=1e-12
        )

    def test_zero_speed_is_threshold(self):
        assert cramer_oracle(BIASED_NN.laws[0], 0.0) == pytest.approx(
            BIASED_RC, abs=1e-12
        )

    def test_edge_of_support(self):
        assert cramer_oracle(WIDE_LAW, 2.0) == pytest.approx(-math.log(2 / 7), abs=1e-14)
        assert cramer_oracle(WIDE_LAW, -2.0) == pytest.approx(-math.log(1 / 7), abs=1e-14)

    def test_outside_support(self):
        assert cramer_oracle(WIDE_LAW, 2.5) == math.inf
        assert cramer_oracle(SYM_NN.laws[0], -1.01) == math.inf


class TestRateValues:
    def test_symmetric_half_speed(self):
        res = rate(SYM_NN, 0.5)
        assert res.branch == "interior"
        assert res.value == pytest.approx(CRAMER_SYM_HALF, abs=1e-9)
        assert res.xi_residual < 1e-10

    def test_zero_speed_costs_the_threshold(self):
        res = rate(BIASED_NN, 0.0)
        assert res.branch == "zero"
        assert res.value == pytest.approx(BIASED_RC, abs=5e-8)

    def test_lln_speed_costs_nothing(self):
        # p - q = 1/2 is the almost-sure velocity
        res = rate(BIASED_NN, 0.5)
        assert res.branch == "interior"
        assert abs(res.value) < 1e-12
        assert abs(res.r_star) < 1e-9

    def test_full_speed_periodic(self):
        res = rate(PER2_NN, 1.0)
        expected = -0.5 * (math.log(0.8) + math.log(0.4))
        assert res.value == pytest.approx(expected, abs=1e-10)

    def test_full_speed_wide(self):
        res = rate(WIDE, 2.0)
        assert res.value == pytest.approx(-math.log(2 / 7), abs=1e-8)

    def test_beyond_reach_is_infinite(self):
        assert rate(SYM_NN, 1.5).branch == "outside"
        assert rate(SYM_NN, 1.5).value == math.inf
        assert rate(WIDE, -2.3).value == math.inf

    def test_tiny_speed_is_interior(self):
        res = rate(BIASED_NN, 1e-6)
        assert res.branch == "interior"
        assert res.value == pytest.approx(cramer_oracle(BIASED_NN.laws[0], 1e-6), abs=1e-7)

    def test_window_environment_rejected(self):
        w = sample_iid(
            [
                (0.5, JumpLaw(b=1, probs=((-1, 0.3), (1, 0.7)))),
                (0.5, JumpLaw(b=1, probs=((-1, 0.6), (1, 0.4)))),
            ],
            -40,
            40,
            seed=7,
        )
        with pytest.raises(ValueError):
            rate(w, 0.3)


class TestDuality:
    """The passage-time route must reproduce the one-step Legendre transform
    for homogeneous environments. The two computations share nothing: one
    solves the drift equation on stabilized ratios, the other minimizes a
    scalar dual."""

    @pytest.mark.parametrize("xi", [0.3, 1.0, 1.7, -0.8, -1.9])
    def test_wide_law(self, xi):
        assert rate(WIDE, xi).value == pytest.approx(
            cramer_oracle(WIDE_LAW, xi), abs=1e-9
        )

    @pytest.mark.parametrize("xi", [0.1, 0.5, 0.9, -0.4])
    def test_biased_nn(self, xi):
        assert rate(BIASED_NN, xi).value == pytest.approx(
            cramer_oracle(BIASED_NN.laws[0], xi), abs=1e-9
        )


class TestPerronLegendre:
    """Values of the Legendre transform of log rho(K_s) against routes that
    share nothing with it: the one-step dual for a shared law, and the
    constrained pair-entropy minimizer for a periodic law."""

    @pytest.mark.parametrize("xi", [-2.0, -1.99, -0.25, 0.0, 0.6, 1.999, 2.0])
    def test_sevenths_against_dual(self, xi):
        assert rate(WIDE, xi).value == pytest.approx(cramer_oracle(WIDE_LAW, xi), abs=1e-9)

    @pytest.mark.parametrize("xi", [-1.0, 0.5, 1.25])
    def test_missing_jump_against_level2(self, xi):
        res = rate(B2_NO_MINUS2, xi)
        assert res.branch == "interior"
        assert res.xi_residual < 1e-10
        ref = level2.minimize_entropy(B2_NO_MINUS2, xi, tol=1e-10)
        assert ref.converged
        assert res.value == pytest.approx(ref.value, abs=1e-5)

    @pytest.mark.parametrize("xi", [-1.75, -2.0, 2.01])
    def test_missing_jump_outside_drift_range(self, xi):
        res = rate(B2_NO_MINUS2, xi)
        assert res.branch == "outside" and res.value == math.inf

    def test_missing_jump_edges_are_finite(self):
        lo, hi = rate(B2_NO_MINUS2, -1.5), rate(B2_NO_MINUS2, 2.0)
        assert lo.branch == hi.branch == "edge"
        assert hi.value == pytest.approx(-math.log((0.3 * 0.25 * 0.3) ** (1 / 3)), abs=1e-14)
        # the interior values climb toward the edge value
        near = rate(B2_NO_MINUS2, -1.5 + 1e-4).value
        assert near < lo.value < near + 1e-2


class TestMirror:
    def test_negative_speed_goes_through_reflection(self):
        res = rate(WIDE, -0.8)
        assert res.mirrored
        direct = rate(reflect(WIDE), 0.8)
        assert res.value == direct.value
        assert res.slope == pytest.approx(-direct.slope, abs=0)

    def test_slope_matches_finite_difference(self):
        xi, h = 0.7, 1e-5
        res = rate(BIASED_NN, xi)
        fd = (rate(BIASED_NN, xi + h).value - rate(BIASED_NN, xi - h).value) / (2 * h)
        assert res.slope == pytest.approx(fd, rel=1e-6)


class TestSymmetryGap:
    def test_nn_identity_homogeneous(self):
        sg = symmetry_gap(BIASED_NN, 0.3)
        assert sg.predicted == pytest.approx(0.3 * math.log(1 / 3), abs=1e-15)
        assert sg.defect < 1e-12

    def test_nn_identity_periodic(self):
        sg = symmetry_gap(PER2_NN, 0.4)
        assert sg.defect < 1e-12

    def test_identity_fails_beyond_nearest_neighbor(self):
        sg = symmetry_gap(WIDE, 0.5)
        assert sg.defect > 1e-3


class TestAsymmetryDemo:
    RS = (-0.25, -0.5, -1.0, -2.0)

    def test_nn_gap_is_constant(self):
        demo = asymmetry_demo(BIASED_NN, self.RS)
        assert demo.variation < 1e-12
        for g in demo.gaps:
            assert g == pytest.approx(math.log(1 / 3), abs=1e-12)

    def test_wide_gap_varies(self):
        demo = asymmetry_demo(WIDE, self.RS)
        assert demo.variation == pytest.approx(0.1652739169769284, rel=1e-9)
        assert demo.variation > 1e-3


class TestRateCurve:
    def test_biased_curve_shape(self):
        grid = np.linspace(-0.9, 0.9, 13)
        cur = rate_curve(BIASED_NN, grid)
        assert cur.convex_ok
        vals = [res.value for res in cur.results]
        assert all(math.isfinite(v) for v in vals)
        assert all(v >= -1e-12 for v in vals)
        # minimum sits at the grid point closest to the almost-sure velocity
        assert cur.argmin == pytest.approx(0.45)

    def test_curve_handles_unreachable_speeds(self):
        cur = rate_curve(SYM_NN, [-1.5, -0.5, 0.0, 0.5, 1.5])
        assert cur.results[0].value == math.inf
        assert cur.results[-1].value == math.inf
        assert cur.convex_ok

    def test_rows_are_plain_tuples(self):
        cur = rate_curve(SYM_NN, [0.0, 0.5])
        rows = cur.rows()
        assert len(rows) == 2
        assert rows[1][1] == pytest.approx(CRAMER_SYM_HALF, abs=1e-9)


class TestXiCritical:
    def test_vanishes_on_this_corpus(self):
        assert xi_critical(BIASED_NN).value < 1e-3
        assert xi_critical(WIDE).value < 1e-3

    def test_slope_bracket_encloses_zero(self):
        xc = xi_critical(BIASED_NN)
        assert xc.bracket[0] <= 0.0 <= xc.bracket[1]
        assert xc.bracket[0] <= xc.value <= xc.bracket[1]


@settings(max_examples=20, deadline=None)
@given(environments(max_b=2, max_period=4))
def test_finite_exactly_on_drift_range_and_convex_property(env):
    lo, hi = level2.drift_range(env)
    assert math.isfinite(rate(env, lo).value) and math.isfinite(rate(env, hi).value)
    assert rate(env, lo - 1e-3).value == math.inf
    assert rate(env, hi + 1e-3).value == math.inf
    grid = lo + (hi - lo) * np.linspace(0.02, 0.98, 13)
    vals = [rate(env, float(x)).value for x in grid]
    assert all(math.isfinite(v) and v >= -1e-12 for v in vals)
    h = grid[1] - grid[0]
    second = [(v0 - 2 * v1 + v2) / h**2 for v0, v1, v2 in zip(vals, vals[1:], vals[2:])]
    assert min(second) >= -1e-6


@settings(max_examples=10, deadline=None)
@given(xi=st.floats(min_value=0.05, max_value=0.95))
def test_duality_property_biased(xi):
    assert rate(BIASED_NN, xi).value == pytest.approx(
        cramer_oracle(BIASED_NN.laws[0], xi), abs=1e-8
    )
