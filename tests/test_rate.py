"""Rate function as the Legendre transform of the Perron core, checked
against one-step Legendre transforms (exact for homogeneous environments),
the constrained pair-entropy minimizer, closed-form thresholds, and boundary
values read off the jump probabilities; the drift-equation root finder against
scipy's brentq, float for float."""

import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre_ldp import level2, passage
from rwre_ldp import rate as rate_module
from rwre_ldp.environment import (
    JumpLaw,
    class_cycle,
    homogeneous,
    offsets,
    periodic,
    reflect,
    sample_iid,
)
from rwre_ldp.errors import SlowConvergenceError
from rwre_ldp.passage import _brent_steps, drift_limits, estimate_rc, log_perron
from rwre_ldp.rate import (
    asymmetry_demo,
    cramer_oracle,
    rate,
    rate_curve,
    symmetry_gaps,
    xi_critical,
)

from .refusing_lapack import refusing
from .strategies import environments, examples

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
PER3_NN = periodic(
    [
        JumpLaw(b=1, probs=((-1, 0.25), (1, 0.75))),
        JumpLaw(b=1, probs=((-1, 0.55), (1, 0.45))),
        JumpLaw(b=1, probs=((-1, 0.35), (1, 0.65))),
    ]
)
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
        assert res.branch == "interior"
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
        sg = symmetry_gaps(BIASED_NN, [0.3])[0]
        assert sg.predicted == pytest.approx(0.3 * math.log(1 / 3), abs=1e-15)
        assert sg.defect < 1e-12

    def test_nn_identity_periodic(self):
        sg = symmetry_gaps(PER2_NN, [0.4])[0]
        assert sg.defect < 1e-12

    def test_identity_fails_beyond_nearest_neighbor(self):
        sg = symmetry_gaps(WIDE, [0.5])[0]
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


@settings(max_examples=examples(20), deadline=None)
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


@settings(max_examples=examples(10), deadline=None)
@given(xi=st.floats(min_value=0.05, max_value=0.95))
def test_duality_property_biased(xi):
    assert rate(BIASED_NN, xi).value == pytest.approx(
        cramer_oracle(BIASED_NN.laws[0], xi), abs=1e-8
    )


# scipy.optimize.brentq's default tolerances, and the drift equation's
BRENT_TOLS = ((2e-12, 4 * np.finfo(float).eps), (1e-13, 8.9e-16))


def _monotone_family(kind: int, c: np.ndarray, root: float):
    """Increasing functions that vanish at root, from easy to bisection-bound."""
    if kind == 0:
        return lambda x: c[0] * (x - root) ** 3 + c[1] * (x - root)
    if kind == 1:
        return lambda x: math.tanh(c[0] * (x - root))
    if kind == 2:
        return lambda x: math.exp(c[0] * x) - math.exp(c[0] * root)
    if kind == 3:
        return lambda x: x**5 + c[1] * x - (root**5 + c[1] * root)
    return lambda x: math.atan(50.0 * c[0] * (x - root))


def _brent(f, a, b, xtol, rtol, maxiter):
    """Brent's method on f, driving `_brent_steps` serially."""
    steps = _brent_steps(a, b, xtol, rtol, maxiter)
    try:
        x = next(steps)
        while True:
            x = steps.send(f(x))
    except StopIteration as stop:
        return stop.value


class TestBrent:
    def test_matches_brentq_bit_for_bit_on_random_brackets(self):
        from scipy.optimize import brentq

        rng = np.random.default_rng(20240601)
        n = 10_000
        for k in range(n):
            c = rng.uniform(0.1, 3.0, size=2)
            root = float(rng.normal(scale=2.0))
            a = root - float(rng.exponential(2.0))
            b = root + float(rng.exponential(2.0))
            if k % 97 == 0:
                a = root  # a root sitting on the bracket's end
            f = _monotone_family(k % 5, c, root)
            for xtol, rtol in BRENT_TOLS:
                ref = brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=300)
                got = _brent(f, a, b, xtol, rtol, 300)
                assert got == ref, (k, a, b, xtol, rtol, got, ref)

    @settings(max_examples=examples(25), deadline=None)
    @given(environments(max_b=2, max_period=4), st.floats(0.02, 0.98))
    def test_matches_brentq_on_the_drift_equation(self, env, frac):
        from scipy.optimize import brentq

        compared = []
        real_steps = passage._brent_steps
        side = []  # the environment and speed rate() solves on

        def checked(a, b, xtol, rtol, maxiter, fa=None, fb=None):
            got = yield from real_steps(a, b, xtol, rtol, maxiter, fa=fa, fb=fb)
            on, speed = side[-1]

            def f(s):
                return log_perron(on, s).slope - speed

            assert got == brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
            compared.append(got)
            return got

        lo, hi = drift_limits(env)
        with mock.patch.object(passage, "_brent_steps", checked):
            for xi in (lo + (hi - lo) * frac, 0.5 * (lo + hi), hi * frac, lo * frac):
                if abs(xi) > 1e-12:
                    side.append((env, xi) if xi > 0 else (reflect(env), -xi))
                    rate(env, float(xi))
        assert compared

    def test_nan_inside_the_bracket_raises(self):
        def f(x):
            return math.nan if 0.0 < x < 1.0 else x - 0.5

        with pytest.raises(SlowConvergenceError) as exc:
            _brent(f, 0.0, 1.0, 1e-13, 8.9e-16, 300)
        diag = exc.value.diagnostics
        assert diag["bracket"] == [0.0, 1.0]
        assert diag["iterations"] == 1
        assert 0.0 < diag["x"] < 1.0

    def test_nan_at_an_end_raises(self):
        with pytest.raises(SlowConvergenceError) as exc:
            _brent(lambda x: math.nan if x == 1.0 else -1.0, 0.0, 1.0, 1e-13, 8.9e-16, 300)
        assert exc.value.diagnostics["bracket"] == [0.0, 1.0]
        assert exc.value.diagnostics["iterations"] == 0

    def test_bracket_without_sign_change_raises(self):
        with pytest.raises(SlowConvergenceError) as exc:
            _brent(lambda x: x + 1.0, 0.0, 1.0, 1e-13, 8.9e-16, 300)
        assert exc.value.diagnostics["bracket"] == [0.0, 1.0]
        assert exc.value.diagnostics["f_bracket"] == [1.0, 2.0]

    def test_exhausted_budget_raises(self):
        def f(x):
            return math.atan(50.0 * (x - 0.3))

        with pytest.raises(SlowConvergenceError) as exc:
            _brent(f, -7.0, 9.0, 1e-13, 8.9e-16, 3)
        assert exc.value.diagnostics["iterations"] == 3
        assert exc.value.diagnostics["bracket"] == [-7.0, 9.0]
        assert _brent(f, -7.0, 9.0, 1e-13, 8.9e-16, 300) == pytest.approx(0.3, abs=1e-13)


def test_log_perron_calls_per_interior_rate_point():
    # f(0), the outward walk to the bracket s in [0, 1] and Brent's interior
    # steps; the bracket ends are not solved twice, and the root's point is
    # the one Brent's last step evaluated
    calls = []
    real = passage.perron_stack

    def counted(env, ss):
        calls.extend(ss)
        return real(env, ss)

    with mock.patch.object(passage, "perron_stack", counted):
        res = rate(PER3_NN, 0.3)
    assert res.branch == "interior"
    assert calls[:2] == [0.0, 1.0]
    assert len(calls) == 8
    assert res.slope in calls


def test_xi_critical_evaluates_only_the_interpolated_tilt():
    # the slopes at the argmin ends come with the threshold estimate
    rc = estimate_rc(PER3_NN, tol=1e-8)
    calls = []
    real = passage._perron_chunk

    def counted(env, ss):
        calls.append(list(ss))
        return real(env, ss)

    with mock.patch.object(passage, "_perron_chunk", counted):
        xc = xi_critical(PER3_NN, rc_est=rc)
    assert len(calls) == 1 and len(calls[0]) == 1
    (a, b), (da, db) = rc.argmin, (log_perron(PER3_NN, s).slope for s in rc.argmin)
    assert (xc.bracket[0].hex(), xc.bracket[1].hex()) == (da.hex(), db.hex())
    s = a if db == da else a - da * (b - a) / (db - da)
    assert xc.value.hex() == log_perron(PER3_NN, s).slope.hex()


def test_rate_curve_searches_the_threshold_once(monkeypatch):
    # the reflected estimate is the forward one read the other way round;
    # the drift range is found once per direction, not once per speed
    calls, limits = [], []

    def counted(env, tol=None):
        calls.append(env)
        return estimate_rc(env, tol=tol)

    def counted_limits(env):
        limits.append(env)
        return drift_limits(env)

    monkeypatch.setattr(rate_module, "_rc_cached", counted)
    monkeypatch.setattr(rate_module, "drift_limits", counted_limits)
    cur = rate_curve(B2_NO_MINUS2, [-0.5, 0.25, 1.0, -0.25], rc_tol=1e-7)
    assert calls == [B2_NO_MINUS2]
    bar = reflect(B2_NO_MINUS2)
    assert limits == [bar, B2_NO_MINUS2]
    rc_bar = estimate_rc(bar, tol=1e-7)
    assert cur.rc == estimate_rc(B2_NO_MINUS2, tol=1e-7)
    assert cur.rc_reflected == rc_bar
    assert cur.xi_critical_reflected == xi_critical(bar, rc_est=rc_bar)


def _result_bits(res) -> tuple:
    """Every field of a RateResult, floats by their hex form (nan and the
    sign of zero included)."""
    return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(res))


class TestLockstepGrid:
    """Grids are solved in lockstep, yet each point is a function of
    (env, xi) alone."""

    GRID = (-2.0, -1.5, -1.1, -0.6, -0.2, 0.0, 0.15, 0.4, 0.9, 1.3, 1.75, 2.0, 2.3)

    @settings(max_examples=examples(15), deadline=None)
    @given(environments(max_b=2, max_period=4), st.randoms(use_true_random=False))
    def test_shuffled_grid_gives_the_same_floats_as_lone_points(self, env, rnd):
        lo, hi = drift_limits(env)
        grid = [lo - 0.1, lo, lo + 0.2 * (hi - lo), 0.0, 0.5 * (lo + hi), hi - 1e-3, hi, hi + 0.3]
        grid = sorted(set(grid + [float(x) for x in np.linspace(lo, hi, 9)[1:-1]]))
        shuffled = grid[:]
        rnd.shuffle(shuffled)
        by_xi = {res.xi: _result_bits(res) for res in rate_curve(env, grid).results}
        for res in rate_curve(env, shuffled).results:
            assert _result_bits(res) == by_xi[res.xi]
            assert _result_bits(rate(env, res.xi)) == by_xi[res.xi]

    def test_grid_matches_lone_points_on_a_missing_jump_law(self):
        results = rate_module.rate_grid(B2_NO_MINUS2, self.GRID)
        for xi, res in zip(self.GRID, results):
            assert _result_bits(res) == _result_bits(rate(B2_NO_MINUS2, xi))
        assert {res.branch for res in results} == {"outside", "edge", "interior"}

    def test_first_failing_point_in_grid_order_raises_its_own_error(self):
        # make the eigen-solve fail at the last tilt Brent visits for two
        # grid points, one of them leftward (solved on the reflection)
        grid = [0.3, 0.9, -0.7, 1.2, -1.1]
        bar = reflect(B2_NO_MINUS2)
        failing = {1: B2_NO_MINUS2, 4: bar}
        bad = []
        for i, on in failing.items():
            s = abs(rate(B2_NO_MINUS2, grid[i]).slope)
            probs = on.probs
            bad.append(class_cycle(on, probs * np.exp(s * offsets(2) - 2 * abs(s))))

        def first_error(xis):
            with pytest.raises(SlowConvergenceError) as exc:
                for xi in xis:
                    rate(B2_NO_MINUS2, xi)
            return exc.value

        with refusing(eig=lambda K: any(np.array_equal(K, k) for k in bad)):
            serial = first_error(grid)
            later = first_error(grid[2:])
            with pytest.raises(SlowConvergenceError) as exc:
                rate_module.rate_grid(B2_NO_MINUS2, grid)
            with pytest.raises(SlowConvergenceError) as exc_later:
                rate_curve(B2_NO_MINUS2, grid[2:])
        assert serial.diagnostics["xi"] == 0.9 and later.diagnostics["xi"] == 1.1
        for got, want in ((exc.value, serial), (exc_later.value, later)):
            assert str(got) == str(want)
            assert got.diagnostics == want.diagnostics
            assert "eigen-solve of K_s failed" in str(got)
