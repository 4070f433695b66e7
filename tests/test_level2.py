"""Pair-measure entropy: identities, gradients, and the constrained minimizer."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from rwre_ldp import level2
from rwre_ldp.environment import JumpLaw, class_cycle, homogeneous, offset_index, periodic
from rwre_ldp.errors import InfeasibleDriftError, SlowConvergenceError
from rwre_ldp.level2 import (
    PairMeasure,
    drift_range,
    empirical_pair_measure,
    entropy,
    entropy_gradient,
    minimize_entropy,
)
from rwre_ldp.passage import drift_limits
from rwre_ldp.tilt import ansatz_measure, tilted_chain

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


class TestPairMeasure:
    def test_marginals_by_hand(self):
        w = np.array([[1 / 3, 1 / 3], [0.0, 1 / 3]])  # (class, [-1, +1])
        mu = PairMeasure(env=PER2_NN, weights=w)
        np.testing.assert_allclose(mu.m1(), [2 / 3, 1 / 3])
        # class 0 receives: (0,-1)->1, (1,+1)->0; mass arriving at 0 is
        # w[1,+1] + w[1,-1]... both jumps from class 1 land on class 0
        np.testing.assert_allclose(mu.m2(), [1 / 3, 2 / 3])
        assert mu.drift() == pytest.approx(1 / 3)

    def test_ansatz_is_shift_stationary(self):
        mu = ansatz_measure(tilted_chain(PER2_NN, -0.2))
        assert mu.shift_defect() < 1e-13
        assert mu.total() == pytest.approx(1.0, abs=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PairMeasure(env=PER2_NN, weights=np.ones((3, 2)) / 6)

    @pytest.mark.parametrize("b", [1, 2, 3])
    @pytest.mark.parametrize("L", [1, 2, 3, 5, 33])
    def test_m2_matches_the_cycle_scatter(self, L, b):
        # column sums of the L x L scatter: the same floats once every jump
        # of a class lands on a different class (L >= 2B + 1); below that
        # the per-class partial sums group differently
        rng = np.random.default_rng(1000 * b + L)
        offs = [z for z in range(-b, b + 1) if z]
        laws = [JumpLaw.from_dict(dict(zip(offs, w / w.sum())), b=b)
                for w in rng.random((L, 2 * b)) + 0.1]
        env = periodic(laws) if L > 1 else homogeneous(laws[0])
        w = rng.random((L, 2 * b))
        if b > 1:
            w[:, 0] = 0.0  # no mass on offset -b
        mu = PairMeasure(env=env, weights=w / w.sum())
        want = class_cycle(env, mu.weights).sum(axis=0)
        if L >= 2 * b + 1:
            np.testing.assert_array_equal(mu.m2(), want)
        else:
            np.testing.assert_allclose(mu.m2(), want, rtol=1e-15, atol=0)


class TestEntropy:
    @pytest.mark.parametrize(
        "env,r",
        [(SYM_NN, -0.1), (PER2_NN, -0.2), (WIDE, -0.5), (DRIFT2, -0.8)],
    )
    def test_tilted_measure_identity(self, env, r):
        # entropy of the tilted pair measure telescopes to r - xi * growth rate
        chain = tilted_chain(env, r)
        val = entropy(ansatz_measure(chain))
        assert val == pytest.approx(r - chain.drift * chain.lam, abs=1e-12)

    def test_untilted_measure_has_zero_entropy(self):
        mu = ansatz_measure(tilted_chain(DRIFT2, 0.0))
        assert entropy(mu) == pytest.approx(0.0, abs=1e-12)

    def test_infinite_off_support(self):
        w = np.array([[0.5, 0.25], [0.0, 0.25]])
        env = periodic(
            [
                JumpLaw(b=1, probs=((-1, 0.5), (1, 0.5))),
                JumpLaw(b=1, probs=((-1, 0.5), (1, 0.5))),
            ]
        )
        # charge a supported pair normally: finite
        assert math.isfinite(entropy(PairMeasure(env=env, weights=w)))
        law_no_up = JumpLaw(b=2, probs=((-2, 0.2), (-1, 0.4), (1, 0.4)))
        env2 = homogeneous(law_no_up)
        w2 = np.zeros((1, 4))
        w2[0, :] = [0.25, 0.25, 0.25, 0.25]  # charges z=+2, unsupported
        assert entropy(PairMeasure(env=env2, weights=w2)) == math.inf

    def test_gradient_matches_finite_difference(self):
        mu = ansatz_measure(tilted_chain(PER2_NN, -0.3))
        g = entropy_gradient(mu)
        rng = np.random.default_rng(2)
        direction = rng.normal(size=mu.weights.shape)
        eps = 1e-7
        up = PairMeasure(env=PER2_NN, weights=mu.weights + eps * direction)
        dn = PairMeasure(env=PER2_NN, weights=mu.weights - eps * direction)
        fd = (entropy(up) - entropy(dn)) / (2 * eps)
        assert fd == pytest.approx(float((g * direction).sum()), abs=1e-6)


class TestDriftRange:
    def test_full_support(self):
        lo, hi = drift_range(WIDE)
        assert lo == pytest.approx(-2.0, abs=1e-9)
        assert hi == pytest.approx(2.0, abs=1e-9)

    def test_nearest_neighbor(self):
        lo, hi = drift_range(PER2_NN)
        assert lo == pytest.approx(-1.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)

    def test_truncated_support(self):
        env = homogeneous(JumpLaw(b=2, probs=((-2, 0.2), (-1, 0.4), (1, 0.4))))
        lo, hi = drift_range(env)
        assert lo == pytest.approx(-2.0, abs=1e-9)
        assert hi == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=examples(25), deadline=None)
@given(environments(max_b=2, max_period=4))
def test_cycle_means_match_the_lp_oracle(env):
    # the minimizer's feasibility check (Karp) against the LP over the
    # polytope, including laws with zero-mass offsets at |z| >= 2
    lo, hi = drift_limits(env)
    lo_lp, hi_lp = drift_range(env)
    assert abs(lo - lo_lp) <= 1e-9 and abs(hi - hi_lp) <= 1e-9


class TestMinimizer:
    @pytest.mark.parametrize("env,r", [(PER2_NN, -0.2), (WIDE, -0.5)])
    def test_recovers_tilted_measure(self, env, r):
        chain = tilted_chain(env, r)
        mu = ansatz_measure(chain)
        res = minimize_entropy(env, chain.drift, tol=1e-10)
        assert res.converged
        expect = r - chain.drift * chain.lam
        assert res.value == pytest.approx(expect, abs=1e-7)
        tv = 0.5 * float(np.abs(res.measure.weights - mu.weights).sum())
        assert tv < 1e-5
        assert res.constraint_residual < 1e-12
        assert res.measure.drift() == pytest.approx(chain.drift, abs=1e-12)
        assert res.measure.shift_defect() < 1e-12

    def test_warm_start_fast(self):
        chain = tilted_chain(PER2_NN, -0.4)
        res = minimize_entropy(PER2_NN, chain.drift, w0=ansatz_measure(chain), tol=1e-9)
        assert res.converged
        assert res.iterations <= 10

    def test_infeasible_drift(self):
        with pytest.raises(InfeasibleDriftError) as exc:
            minimize_entropy(WIDE, 2.5)
        assert exc.value.xi_max == pytest.approx(2.0, abs=1e-9)

    @pytest.mark.parametrize("env", [PER2_NN, WIDE, DRIFT2])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_just_outside_the_range_carries_the_cycle_means(self, env, side):
        lo, hi = drift_limits(env)
        xi = hi + 1e-9 if side > 0 else lo - 1e-9
        with pytest.raises(InfeasibleDriftError) as exc:
            minimize_entropy(env, xi)
        assert (exc.value.xi_min, exc.value.xi_max) == (lo, hi)

    def test_zero_drift_minimum_nonnegative(self):
        res = minimize_entropy(WIDE, 0.0, tol=1e-9)
        # zero-drift law: the untilted measure itself has drift 0, entropy 0
        assert res.value == pytest.approx(0.0, abs=1e-9)

    def test_a_projection_stopped_at_its_cap_is_never_accepted(self):
        # near the end of the drift range the floor binds, and five Dykstra
        # sweeps leave every projection off the constraints: each trial
        # step fails, and the last-resort step raises instead of landing
        with mock.patch.object(level2, "_DYKSTRA_ITERS", 5):
            with pytest.raises(SlowConvergenceError) as exc:
                minimize_entropy(PER2_NN, 0.9)
        diag = exc.value.diagnostics
        assert diag["constraint_residual"] > diag["reach"] and diag["iterations"] == 1
        res = minimize_entropy(PER2_NN, 0.9)
        assert res.converged and res.constraint_residual <= 1e-14

    def test_the_end_of_the_drift_range_is_as_feasible_as_the_floor_allows(self):
        # the -1 weights must vanish at xi = 1, and the floor keeps them at
        # 1e-12: no projection gets closer than 2e-12 to the constraints
        res = minimize_entropy(PER2_NN, 1.0)
        assert res.converged
        assert 1e-12 < res.constraint_residual <= 4 * 1e-12


# one class lacks the -2 jump, so the minimizer runs on 11 of 12 coordinates
B2_NO_MINUS2 = periodic(
    [
        JumpLaw(b=2, probs=((-2, 0.1), (-1, 0.3), (1, 0.3), (2, 0.3))),
        JumpLaw(b=2, probs=((-2, 0.2), (-1, 0.3), (1, 0.25), (2, 0.25))),
        JumpLaw(b=2, probs=((-1, 0.35), (1, 0.35), (2, 0.3))),
    ]
)


def _full_b2(length: int, seed: int):
    """B = 2 laws with every offset, weights 0.5 + U(0, 1), normalised."""
    g = np.random.default_rng(seed)
    laws = []
    for _ in range(length):
        w = 0.5 + g.random(4)
        w = w / w.sum()
        laws.append(JumpLaw(b=2, probs=tuple(zip((-2, -1, 1, 2), w.tolist()))))
    return periodic(laws)


class TestPinnedMinimizer:
    """The minimizer's output to the last bit, as computed when it gathered
    and scattered its coordinates one by one and summed the entropy over
    numpy scalars."""

    @pytest.mark.parametrize("env, xi, digest, value, iterations, gmap", [
        (PER2_NN, 0.3,
         "a4033d2a0904af08444bab34015523808baec1f86bd8c973e425668160d453fc",
         0.006322577914685282, 5, 2.068302587261576e-15),
        (B2_NO_MINUS2, 0.5,
         "961cd5c8dcc2cab838de856f11df471bf8c0a3b9553e158dbaa5ae05a15ab1b1",
         0.0058493396097197385, 22, 7.06789009745459e-12),
        (_full_b2(24, 24), -0.3,
         "3108f763b6757e407865d118452644cf8464b5d723b26e627ec7b5bb8eb2ef1c",
         0.018134379252439166, 84, 9.545892603677977e-11),
    ])
    def test_matches_pinned_output(self, env, xi, digest, value, iterations, gmap):
        res = minimize_entropy(env, xi, tol=1e-10)
        w = np.ascontiguousarray(res.measure.weights, dtype="<f8")
        assert hashlib.sha256(w.tobytes()).hexdigest() == digest
        assert (res.value, res.iterations, res.grad_map_norm) == (value, iterations, gmap)
        assert res.converged


class TestEmpirical:
    def test_matches_a_step_loop(self):
        g = np.random.default_rng(5)
        for env in (PER2_NN, B2_NO_MINUS2, _full_b2(7, 1)):
            b, L = env.b, env.period
            jumps = np.array([z for z in range(-b, b + 1) if z])
            x = np.concatenate([[-13], g.choice(jumps, 2000)]).cumsum()
            w = np.zeros((L, 2 * b))
            for site, z in zip(x[:-1], np.diff(x)):
                w[int(site) % L, offset_index(b, int(z))] += 1.0
            assert np.array_equal(empirical_pair_measure(env, x).weights, w / w.sum())

    def test_names_the_first_bad_jump(self):
        with pytest.raises(ValueError, match=r"offset 0 outside"):
            empirical_pair_measure(B2_NO_MINUS2, np.array([0, 2, 2, 5]))

    def test_hand_path(self):
        mu = empirical_pair_measure(PER2_NN, np.array([0, 1, 2, 1]))
        w = mu.weights
        assert w[0, 1] == pytest.approx(1 / 3)  # class 0, +1
        assert w[1, 1] == pytest.approx(1 / 3)  # class 1, +1
        assert w[0, 0] == pytest.approx(1 / 3)  # class 0 (site 2), -1
        assert mu.total() == pytest.approx(1.0)

    def test_rejects_bad_jump(self):
        with pytest.raises(ValueError):
            empirical_pair_measure(PER2_NN, np.array([0, 3]))


@settings(max_examples=examples(12), deadline=None)
@given(jump_laws(max_b=2))
def test_identity_property(law):
    env = homogeneous(law)
    chain = tilted_chain(env, -0.6)
    val = entropy(ansatz_measure(chain))
    assert val == pytest.approx(-0.6 - chain.drift * chain.lam, abs=1e-10)
