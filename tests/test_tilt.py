"""Tilted kernel structure: row sums, stationary laws, correctors, ansatz."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre_ldp import tilt
from rwre_ldp.environment import JumpLaw, class_cycle, homogeneous, offsets, periodic
from rwre_ldp.errors import DriftMismatchError, SlowConvergenceError
from rwre_ldp.passage import log_perron, lyapunov, lyapunov_prime
from rwre_ldp.tilt import (
    ansatz_measure,
    corrector,
    invariant_density,
    occupation_density,
    stationary_speed,
    tilt_kernel,
    tilted_chain,
    velocity,
)

from .strategies import environments, examples, jump_laws

SYM_NN = homogeneous(JumpLaw(b=1, probs=((-1, 0.5), (1, 0.5))))
PER2_NN = periodic(
    [
        JumpLaw(b=1, probs=((-1, 0.2), (1, 0.8))),
        JumpLaw(b=1, probs=((-1, 0.6), (1, 0.4))),
    ]
)
WIDE = homogeneous(JumpLaw(b=2, probs=((-2, 1 / 7), (-1, 3 / 7), (1, 1 / 7), (2, 2 / 7))))
DRIFT2 = homogeneous(JumpLaw(b=2, probs=((-2, 0.1), (-1, 0.2), (1, 0.3), (2, 0.4))))

CASES = [(SYM_NN, -0.1), (PER2_NN, -0.2), (WIDE, -0.5), (DRIFT2, -0.8)]


def slope(env, r):
    return lyapunov_prime(env, r, stationary_speed(tilted_chain(env, r)))


class TestKernel:
    @pytest.mark.parametrize("env,r", CASES)
    def test_rows_sum_to_one_unrenormalized(self, env, r):
        kern = tilt_kernel(env, r)
        sums = kern.probs.sum(axis=1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12
        assert kern.row_defect < 1e-12

    @pytest.mark.parametrize("env,r", CASES)
    def test_unit_jump_floor(self, env, r):
        kern = tilt_kernel(env, r)
        offs = offsets(env.b)
        for j, z in enumerate(offs):
            if abs(int(z)) == 1:
                assert np.all(kern.probs[:, j] >= kern.floor - 1e-15)

    def test_transition_matrix_stochastic(self):
        kern = tilt_kernel(PER2_NN, -0.2)
        T = class_cycle(kern.env, kern.probs)
        assert T.shape == (2, 2)
        assert np.max(np.abs(T.sum(axis=1) - 1.0)) < 1e-12

    def test_rejects_window(self):
        from rwre_ldp.environment import sample_iid

        env = sample_iid(
            [(1.0, JumpLaw(b=1, probs=((-1, 0.4), (1, 0.6))))],
            x_lo=-10,
            x_hi=10,
            seed=1,
        )
        with pytest.raises(ValueError):
            tilt_kernel(env, -0.5)


class TestStationary:
    @pytest.mark.parametrize("env,r", CASES)
    def test_invariance(self, env, r):
        chain = tilted_chain(env, r)
        stat = chain.stat
        assert stat.sum() == pytest.approx(1.0, abs=1e-14)
        assert np.all(stat >= 0)
        T = class_cycle(chain.env, chain.probs)
        assert np.max(np.abs(stat @ T - stat)) < 1e-13

    def test_symmetric_nn_speed_closed_form(self):
        # tilted +-1 probabilities are p e^r / zeta and p e^r zeta
        r = -0.1
        e = math.exp(r)
        zeta = (1.0 - math.sqrt(1.0 - e * e)) / e
        expect = 0.5 * e * (1.0 / zeta - zeta)
        assert stationary_speed(tilted_chain(SYM_NN, r)) == pytest.approx(expect, abs=1e-13)

    def test_singular_solve_raises_with_the_tilt(self):
        # rows that send class 0 to class 1 with weight 1 and class 1 back
        # with weight -1 make the bordered matrix singular
        rows = np.array([[0.5, 0.5], [-0.5, -0.5]])
        with pytest.raises(SlowConvergenceError) as exc:
            tilt._stationary(rows, -0.3)
        assert exc.value.diagnostics["r"] == -0.3

    def test_nan_entry_raises_with_the_tilt(self):
        rows = np.array([[0.5, 0.5], [0.5, 0.5], [np.nan, 1.0]])
        with pytest.raises(SlowConvergenceError) as exc:
            tilt._stationary(rows, -0.4)
        assert exc.value.diagnostics["r"] == -0.4

    def test_zero_pivot_raises_with_the_tilt(self):
        # class 2 has no out-flow: the chain is reducible
        rows = np.array([[0.5, 0.5], [0.5, 0.5], [0.0, 0.0]])
        with pytest.raises(SlowConvergenceError) as exc:
            tilt._stationary(rows, -0.5)
        assert exc.value.diagnostics["r"] == -0.5
        assert exc.value.diagnostics["pivot"] == 0.0

    def test_overflowing_law_raises_with_the_tilt(self):
        # every class pushes toward class 50 with odds 1e10 : 1, so the law
        # relative to class 0 grows past the float range
        rows = np.array([[1e-10, 1.0] if i < 50 else [1.0, 1e-10] for i in range(100)])
        with pytest.raises(SlowConvergenceError) as exc:
            tilt._stationary(rows / rows.sum(axis=1, keepdims=True), -0.6)
        assert exc.value.diagnostics["r"] == -0.6

    def test_matches_long_double_reduction(self):
        for probs in _banded_row_sets():
            want = _gth_long_double(probs)
            got = tilt._stationary(probs, -0.1)
            assert np.all(np.abs(got - want) <= 1e-13 * want), probs.shape

    def test_matches_dense_bordered_solve(self):
        # the dense solve is accurate normwise only: on rows whose law
        # spans many orders of magnitude its small components lose digits
        for probs in _banded_row_sets():
            np.testing.assert_allclose(
                tilt._stationary(probs, -0.1), _dense_bordered(probs), rtol=0, atol=1e-9
            )

    @pytest.mark.parametrize("b", [1, 2])
    def test_memory_stays_linear_in_the_period(self, b):
        # the dense route needs two 4096 x 4096 float matrices, over 268 MB
        probs = _banded_rows(np.random.default_rng(b), 4096, b)
        tracemalloc.start()
        try:
            tilt._stationary(probs, -0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


class TestChain:
    def test_rows_match_site_loop(self):
        # class 2 has no -2 jump; entries stay p * math.exp(r + log u), bit for bit
        env = periodic([
            JumpLaw.from_dict({"-2": 0.1, "-1": 0.3, "1": 0.3, "2": 0.3}),
            JumpLaw.from_dict({"-2": 0.2, "-1": 0.3, "1": 0.25, "2": 0.25}),
            JumpLaw.from_dict({"-1": 0.35, "1": 0.35, "2": 0.3}, b=2),
        ])
        r = -0.45
        chain = tilted_chain(env, r)
        want = np.zeros((3, 4))
        for i, law in enumerate(env.laws):
            arr = law.as_array()
            for j in range(4):
                if arr[j] > 0:
                    want[i, j] = arr[j] * math.exp(r + chain.log_u[i, j])
        np.testing.assert_array_equal(chain.probs, want)
        assert chain.probs[2, 0] == 0.0

    def test_arrays_are_read_only(self):
        chain = tilted_chain(DRIFT2, -0.6)
        for arr in (chain.probs, chain.log_u, chain.stat):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    @pytest.mark.parametrize("env,r", CASES)
    def test_readers_share_its_numbers(self, env, r):
        chain = tilted_chain(env, r)
        dens = invariant_density(chain)
        assert dens.stat is chain.stat
        assert dens.speed == stationary_speed(chain) == chain.drift
        assert corrector(chain).lam == chain.lam
        assert chain.lam == lyapunov(env, r).value
        mu = ansatz_measure(chain)
        np.testing.assert_array_equal(mu.weights, chain.stat[:, None] * chain.probs)


class TestSlope:
    @pytest.mark.parametrize("env,r", CASES)
    def test_two_routes_agree(self, env, r):
        lp = slope(env, r)
        assert abs(lp.fd_value - lp.value) <= 1e-5 * max(1.0, abs(lp.value))
        assert lp.value >= 1.0 / env.b - 1e-9

    def test_slope_grows_toward_criticality(self):
        # convexity: the slope increases with the tilt
        a = slope(WIDE, -2.0).value
        b = slope(WIDE, -0.3).value
        assert b > a

    @pytest.mark.parametrize("env,r", CASES)
    def test_speed_off_the_curve_raises(self, env, r):
        # a speed 1e-3 off the chain's misses the stencil by ten times the
        # 1e-4 gate
        speed = stationary_speed(tilted_chain(env, r)) * (1 + 1e-3)
        with pytest.raises(DriftMismatchError) as exc:
            lyapunov_prime(env, r, speed)
        assert exc.value.drift == speed
        assert exc.value.reciprocal_slope == pytest.approx(speed / (1 + 1e-3), rel=1e-4)


class TestInvariantDensity:
    @pytest.mark.parametrize("env,r", [(PER2_NN, -0.2), (WIDE, -0.5)])
    def test_occupation_matches_exact(self, env, r):
        chain = tilted_chain(env, r)
        exact = invariant_density(chain)
        occ = occupation_density(chain, tol=1e-8)
        tv = 0.5 * float(np.abs(exact.stat - occ.stat).sum())
        assert tv < 1e-6
        assert occ.gap < 1e-8

    @pytest.mark.parametrize("env,r", CASES)
    def test_occupation_scale(self, env, r):
        inv = invariant_density(tilted_chain(env, r))
        # class-average of the raw profile is the growth-curve slope
        assert float(np.mean(inv.phi)) == pytest.approx(1.0 / inv.speed, abs=1e-12)
        assert inv.floor_ok

    def test_speed_is_reciprocal_slope(self):
        inv = invariant_density(tilted_chain(PER2_NN, -0.2))
        lp = slope(PER2_NN, -0.2)
        assert inv.speed == pytest.approx(1.0 / lp.value, rel=1e-10)


class TestCorrector:
    @pytest.mark.parametrize("env,r", CASES)
    def test_exact_discrete_gradient(self, env, r):
        cor = corrector(tilted_chain(env, r))
        L = env.period
        offs = offsets(env.b)
        for i in range(L):
            for j, z in enumerate(offs):
                lhs = cor.values[i, j]
                rhs = cor.potential[(i + int(z)) % L] - cor.potential[i]
                # wraps differ by whole multiples of sum(theta) + L lam = 0
                assert lhs == pytest.approx(rhs, abs=1e-11)

    def test_homogeneous_corrector_vanishes(self):
        cor = corrector(tilted_chain(WIDE, -0.5))
        assert np.max(np.abs(cor.values)) < 1e-12
        assert cor.span == 0.0

    def test_path_sums_bounded(self):
        cor = corrector(tilted_chain(PER2_NN, -0.3))
        rng = np.random.default_rng(5)
        # arbitrary walk; partial sums must stay within the potential span
        steps = rng.choice([-1, 1], size=500)
        x = 0
        partial = 0.0
        for z in steps:
            partial += cor.increment(x, int(z))
            x += int(z)
            assert abs(partial) <= cor.span + 1e-10


class TestAnsatz:
    @pytest.mark.parametrize("env,r", CASES)
    def test_pair_measure_shape(self, env, r):
        chain = tilted_chain(env, r)
        mu = ansatz_measure(chain)
        assert mu.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(mu.weights >= 0)
        np.testing.assert_allclose(mu.weights.sum(axis=1), chain.stat, atol=1e-13)
        assert -env.b < chain.drift < env.b

    def test_drift_decreases_with_tilt(self):
        # the tilted drift runs from B down toward the critical drift
        assert tilted_chain(WIDE, -2.0).drift > tilted_chain(WIDE, -0.5).drift

    def test_drift_matches_slope_reciprocal(self):
        lp = slope(DRIFT2, -0.8)
        assert tilted_chain(DRIFT2, -0.8).drift == pytest.approx(1.0 / lp.value, rel=1e-10)

    def test_lam_consistent(self):
        chain = tilted_chain(WIDE, -0.5)
        assert chain.lam == pytest.approx(lyapunov(WIDE, -0.5).value, abs=1e-12)


@settings(max_examples=examples(15), deadline=None)
@given(jump_laws(max_b=2))
def test_kernel_row_sums_property(law):
    env = homogeneous(law)
    kern = tilt_kernel(env, -0.7)
    assert np.max(np.abs(kern.probs.sum(axis=1) - 1.0)) < 1e-11
    speed = stationary_speed(kern)
    assert 0.0 < speed <= env.b


@settings(max_examples=examples(100), deadline=None)
@given(environments(max_b=3, max_period=64), st.floats(-2.0, -0.01))
def test_stationary_invariance_property(env, r):
    # stat T - stat = stat * (row sum - 1) exactly, so each class may miss
    # by its row's own defect; rounding in the reduction and in stat T
    # stays under 1e-14 relative
    chain = tilted_chain(env, r)
    T = class_cycle(chain.env, chain.probs)
    defect = np.abs(T.sum(axis=1) - 1.0)
    assert np.all(np.abs(chain.stat @ T - chain.stat) <= chain.stat * (defect + 1e-14))


@settings(max_examples=examples(50), deadline=None)
@given(environments(max_b=3, max_period=64))
def test_velocity_is_the_perron_slope_at_zero(env):
    # Lambda'(0) two ways: the bare class chain's stationary drift, and the
    # slope of log rho(K_s) at s = 0 from the Perron vectors
    assert velocity(env) == pytest.approx(log_perron(env, 0.0).slope, rel=1e-10, abs=1e-12)


def _banded_rows(rng, L: int, b: int) -> np.ndarray:
    """Kernel rows on the class cycle: zero-mass offsets beyond +-1 and a
    drift skew of up to e^3 either way."""
    w = rng.random((L, 2 * b))
    w[:, [0, -1]] *= rng.random((L, 2)) > 0.3
    w[:, [b - 1, b]] += 0.05
    w[:, b:] *= math.exp(rng.uniform(-3.0, 3.0))
    return w / w.sum(axis=1, keepdims=True)


def _banded_row_sets():
    rng = np.random.default_rng(20261018)
    for _ in range(200):
        yield _banded_rows(rng, int(rng.integers(1, 80)), int(rng.integers(1, 4)))


def _cycle_of(probs: np.ndarray) -> np.ndarray:
    """class_cycle of bare (L, 2B) rows, on a placeholder environment of
    their shape (the layout depends on L and B only)."""
    L, width = probs.shape
    env = periodic([JumpLaw(b=width // 2, probs=((-1, 0.5), (1, 0.5)))] * L)
    return class_cycle(env, probs)


def _gth_long_double(probs: np.ndarray) -> np.ndarray:
    """Dense GTH state reduction in long double: the accuracy oracle."""
    A = _cycle_of(probs).astype(np.longdouble)
    L = A.shape[0]
    for n in range(L - 1, 0, -1):
        A[:n, n] /= A[n, :n].sum()
        A[:n, :n] += np.outer(A[:n, n], A[n, :n])
    x = np.zeros(L, dtype=np.longdouble)
    x[0] = 1.0
    for n in range(1, L):
        x[n] = x[:n] @ A[:n, n]
    return (x / x.sum()).astype(float)


def _dense_bordered(probs: np.ndarray) -> np.ndarray:
    """The dense bordered solve the reduction replaced: (I - T^T) pi = 0
    with one balance equation swapped for the normalisation."""
    L = probs.shape[0]
    A = np.eye(L) - _cycle_of(probs).T
    A[-1, :] = 1.0
    rhs = np.zeros(L)
    rhs[-1] = 1.0
    stat = np.linalg.solve(A, rhs)
    return stat / stat.sum()

