"""Simulation layer: counter-based streams, ensemble mechanics, and the
z-gated agreement between sampled walks and the analytic pipeline.

Every check is deterministic given its seed, so passing outcomes frozen
here stay frozen."""

import hashlib
import math

import numpy as np
import pytest

from rwre_ldp import mc, rng
from rwre_ldp.environment import JumpLaw, homogeneous, periodic, sample_iid

BIASED_NN = homogeneous(JumpLaw(b=1, probs=((-1, 0.25), (1, 0.75))))
# the environment of configs/mc_verify_per2.json
PER2_NN = periodic(
    [
        JumpLaw(b=1, probs=((-1, 0.2), (1, 0.8))),
        JumpLaw(b=1, probs=((-1, 0.6), (1, 0.4))),
    ]
)
DRIFT2 = homogeneous(JumpLaw(b=2, probs=((-2, 0.1), (-1, 0.2), (1, 0.3), (2, 0.4))))


def sha256_le(a: np.ndarray) -> str:
    return hashlib.sha256(np.asarray(a).astype("<i8").tobytes()).hexdigest()


class TestStreams:
    def test_uniform_at_matches_per_stream_draws(self):
        keys = np.array([rng.stream_key(5, j) for j in range(6)], dtype=np.uint64)
        for k in (0, 1, 17):
            batch = rng.uniform_at(keys, k)
            singles = [rng.uniform(key, k, 1)[0] for key in keys]
            assert np.array_equal(batch, np.array(singles))
            # draw k of a block regenerated from draw 0 is the same number
            blocks = [rng.uniform(key, 0, 18)[k] for key in keys]
            assert np.array_equal(batch, np.array(blocks))

    @pytest.mark.parametrize(
        "seed, lo, hi",
        [(5, 0, 6), (7, 3, 40), (20260815, 1000, 1017), (2**64 - 1, 0, 9), (2**64 - 5, 2, 12)],
    )
    def test_stream_keys_match_per_replica_keys(self, seed, lo, hi):
        # seeds near 2**64 - 1 wrap in the uint64 addition
        keys = rng.stream_keys(seed, lo, hi)
        loop = np.array([rng.stream_key(seed, j) for j in range(lo, hi)], dtype=np.uint64)
        assert keys.dtype == np.uint64
        assert np.array_equal(keys, loop)

    def test_walk_deterministic_in_seed(self):
        a = mc.walk_ensemble(BIASED_NN, 99, 500, 50).positions
        b = mc.walk_ensemble(BIASED_NN, 99, 500, 50).positions
        assert np.array_equal(a, b)
        c = mc.walk_ensemble(BIASED_NN, 100, 500, 50).positions
        assert not np.array_equal(a, c)

    def test_walker_streams_independent_of_ensemble_size(self):
        # walker j's path depends on (seed, j) only
        small = mc.walk_ensemble(BIASED_NN, 42, 300, 3).positions
        large = mc.walk_ensemble(BIASED_NN, 42, 300, 20).positions
        assert np.array_equal(small, large[:3])

    def test_thread_split_is_invisible(self):
        kw = dict(r=-0.2, count_pairs=True, track_corrector=True)
        s1 = mc.walk_ensemble(BIASED_NN, 7, 500, 97, threads=1, **kw)
        s4 = mc.walk_ensemble(BIASED_NN, 7, 500, 97, threads=4, **kw)
        assert np.array_equal(s1.positions, s4.positions)
        assert np.array_equal(s1.pair_counts, s4.pair_counts)
        assert np.array_equal(s1.corrector_sums, s4.corrector_sums)
        t1, c1 = mc.passage_ensemble(BIASED_NN, 8, 40, 101, 5000, threads=1)
        t4, c4 = mc.passage_ensemble(BIASED_NN, 8, 40, 101, 5000, threads=4)
        assert np.array_equal(t1, t4) and np.array_equal(c1, c4)

    def test_thread_split_above_the_block_floor(self, monkeypatch):
        # 2^16 walkers make two blocks of 2^15, the smallest that splits
        blocks = []
        passage_block = mc._passage_block

        def recorded(smp, seed, level, max_steps, j_lo, j_hi):
            blocks.append((j_lo, j_hi))
            return passage_block(smp, seed, level, max_steps, j_lo, j_hi)

        monkeypatch.setattr(mc, "_passage_block", recorded)
        n = 1 << 16
        t1, c1 = mc.passage_ensemble(PER2_NN, 8, 8, n, 500, threads=1)
        t2, c2 = mc.passage_ensemble(PER2_NN, 8, 8, n, 500, threads=2)
        assert blocks == [(0, n), (0, n // 2), (n // 2, n)]
        assert np.array_equal(t1, t2) and np.array_equal(c1, c2)

    def test_small_ensembles_start_no_thread(self, monkeypatch):
        import concurrent.futures

        def refuse(*args, **kwargs):
            raise AssertionError("a thread pool was started")

        want = mc.walk_ensemble(PER2_NN, 7, 300, 200, threads=1).positions
        want_tau = mc.passage_ensemble(PER2_NN, 8, 40, 200, 5000, threads=1)
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        got = mc.walk_ensemble(PER2_NN, 7, 300, 200, threads=4).positions
        got_tau = mc.passage_ensemble(PER2_NN, 8, 40, 200, 5000, threads=4)
        assert np.array_equal(want, got)
        assert all(np.array_equal(a, b) for a, b in zip(want_tau, got_tau))

    def test_positions_within_reach(self):
        s = mc.walk_ensemble(DRIFT2, 7, 200, 30)
        assert np.all(np.abs(s.positions) <= 2 * 200)

    def test_walk_matches_pinned_values(self):
        # values of the kernel that tallied pairs with np.add.at on every step
        s = mc.walk_ensemble(PER2_NN, 7, 500, 97, r=-0.3, count_pairs=True)
        assert s.pair_counts.tolist() == [[1476, 22774], [6765, 17485]]
        assert sha256_le(s.positions) == (
            "714d47b860b892f7b588d0698bb6a000e03112ad087114d5086bd3869508389c"
        )

    def test_pair_counts_total(self):
        s = mc.walk_ensemble(PER2_NN, 8, 400, 25, r=-0.2, count_pairs=True)
        assert s.pair_counts.sum() == 400 * 25
        assert s.pair_counts.shape == (2, 2)


class TestDrawBlocks:
    """The kernels step in blocks of draws from one `uniform_at` call each;
    the block length must not show in any output."""

    @pytest.mark.parametrize("k0", [0, 5, 2**40])
    def test_block_keys_match_per_step_draws(self, k0):
        # keys near 2**64 - 1 wrap in the uint64 addition
        top = np.array([2**64 - 1, 2**64 - 2], dtype=np.uint64)
        keys = np.concatenate([rng.stream_keys(5, 0, 4), top])
        m = 7
        block = rng.uniform_at(rng.block_keys(keys, k0, m), 0)
        assert block.shape == (m * keys.size,)
        for i, row in enumerate(block.reshape(m, keys.size)):
            assert np.array_equal(row, rng.uniform_at(keys, k0 + i))

    @staticmethod
    def outputs() -> list:
        out = []
        for threads in (1, 3):
            for n_walkers in (5, 41):
                s = mc.walk_ensemble(
                    PER2_NN, 7, 300, n_walkers, r=-0.3,
                    count_pairs=True, track_corrector=True, threads=threads,
                )
                out += [s.positions, s.pair_counts, s.corrector_sums]
        for env in (PER2_NN, DRIFT2):
            for n_walkers in (5, 41):
                out += mc.passage_ensemble(env, 8, 30, n_walkers, 2000)
                out += mc.passage_ensemble(env, 8, 0, n_walkers, 50)  # level 0
                out += mc.passage_ensemble(env, 8, 30, n_walkers, 0)  # no steps
                out += mc.passage_ensemble(env, 8, 10_000, n_walkers, 25)  # censored
        return out

    def test_block_length_is_invisible(self, monkeypatch):
        want = self.outputs()
        for budget in (1, 3):
            monkeypatch.setattr(mc, "_DRAW_BUDGET", budget)
            got = self.outputs()
            assert len(got) == len(want)
            for a, b in zip(want, got):
                assert a.dtype == b.dtype
                assert np.array_equal(a, b)

    def test_one_draw_call_per_block(self, monkeypatch):
        calls, drawn = [], []
        uniform_at = rng.uniform_at

        def counting(keys, k):
            calls.append(k)
            drawn.append(len(keys))
            return uniform_at(keys, k)

        monkeypatch.setattr(rng, "uniform_at", counting)
        n_steps, n_walkers = 10_000, 200
        mc.walk_ensemble(PER2_NN, 3, n_steps, n_walkers)
        assert sum(drawn) == n_steps * n_walkers
        assert len(calls) <= math.ceil(n_steps / (mc._DRAW_BUDGET // n_walkers))


class TestPassageEnsemble:
    def test_passage_matches_pinned_values(self):
        # computed by the kernel that drew for every walker at every step
        tau, censored = mc.passage_ensemble(PER2_NN, 8, 40, 101, 5000)
        assert int(tau.sum()) == 22090
        assert not censored.any()
        assert sha256_le(tau) == (
            "a5684e202c6c8288919dea8e87d3fef1251a86d0882add5184944dab3309c2d0"
        )

    @pytest.mark.parametrize("threads", [1, 3])
    def test_arrived_walkers_draw_nothing(self, monkeypatch, threads):
        drawn = []
        uniform_at = rng.uniform_at

        def counting(keys, k):
            drawn.append(len(keys))
            return uniform_at(keys, k)

        monkeypatch.setattr(rng, "uniform_at", counting)
        tau, censored = mc.passage_ensemble(PER2_NN, 8, 40, 101, 5000, threads=threads)
        assert not censored.any()
        assert sum(drawn) == int(tau.sum())

    def test_all_censored_under_tiny_budget(self):
        tau, censored = mc.passage_ensemble(BIASED_NN, 3, level=10_000, n_walkers=20, max_steps=5)
        assert censored.all()
        assert np.all(tau == 5)

    def test_arrival_times_geometric_scale(self):
        tau, censored = mc.passage_ensemble(BIASED_NN, 4, level=50, n_walkers=64, max_steps=10_000)
        assert not censored.any()
        # velocity 1/2, so tau clusters near 100
        assert 60 < np.mean(tau) < 160

    def test_window_environment_rejected(self):
        w = sample_iid(
            [(1.0, JumpLaw(b=1, probs=((-1, 0.4), (1, 0.6))))], -30, 30, seed=2
        )
        with pytest.raises(ValueError):
            mc.walk_ensemble(w, 1, 10, 5)


class TestChecks:
    def test_velocity(self):
        c = mc.empirical_velocity_check(BIASED_NN, seed=11, n_steps=4000, n_walkers=150)
        assert c.passed
        assert abs(c.z) <= 3
        assert c.expected == pytest.approx(0.5, abs=1e-12)

    def test_passage_lln(self):
        c = mc.passage_lln_check(BIASED_NN, seed=12, level=800, n_walkers=150)
        assert c.passed
        assert c.extra["censored"] == 0
        assert c.expected == pytest.approx(2.0, abs=1e-12)

    def test_mgf_match(self):
        c = mc.mgf_match_check(BIASED_NN, -0.3, seed=13, level=8, n_walkers=40_000)
        assert c.passed
        assert c.se > 0
        assert c.extra["truncation_bias_bound"] < 1e-30

    def test_mgf_match_needs_negative_tilt(self):
        with pytest.raises(ValueError):
            mc.mgf_match_check(BIASED_NN, 0.1, seed=1)

    def test_moment_envelope(self):
        c = mc.moment_envelope_check(BIASED_NN, -0.3, 2, seed=14, level=8, n_walkers=40_000)
        assert c.passed
        # envelope is a loose analytic ceiling, not a sharp value
        assert c.observed < c.expected

    def test_tilted_drift_periodic(self):
        c = mc.tilted_drift_check(PER2_NN, -0.2, seed=15, n_steps=3000, n_walkers=150)
        assert c.passed
        assert c.extra["pair_tv"] < 0.01

    def test_tilted_drift_wide(self):
        c = mc.tilted_drift_check(DRIFT2, -0.5, seed=17, n_steps=3000, n_walkers=150)
        assert c.passed

    def test_corrector_path(self):
        c = mc.corrector_path_check(PER2_NN, -0.2, seed=16, n_steps=3000, n_walkers=40)
        assert c.passed
        assert c.extra["telescope_error"] < 1e-11
        assert c.observed <= c.expected + 1e-9


class TestReport:
    def test_standard_batch_passes(self):
        rep = mc.run_standard_checks(
            BIASED_NN, seed=21, r=-0.3, n_steps=2000, n_walkers=100,
            mgf_walkers=20_000, level=6,
        )
        assert rep.all_passed
        assert [c.name for c in rep.checks] == list(mc.STANDARD_CHECKS)

    def test_subset_and_json_shape(self):
        rep = mc.run_standard_checks(
            PER2_NN, seed=5, include=("tilted-drift", "corrector-path"),
            r=-0.2, n_steps=1000, n_walkers=60,
        )
        js = rep.to_json()
        assert js["algorithm"] == "splitmix64"
        assert len(js["checks"]) == 2
        assert {"name", "observed", "expected", "se", "z", "gate", "passed"} <= set(
            js["checks"][0]
        )
        assert isinstance(js["all_passed"], bool)

    def test_unknown_check_name(self):
        with pytest.raises(ValueError):
            mc.run_standard_checks(BIASED_NN, seed=1, include=("nope",))
