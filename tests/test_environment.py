import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre_ldp.environment import (
    Environment,
    JumpLaw,
    class_cycle,
    env_from_json,
    env_to_json,
    homogeneous,
    law_at,
    offset_index,
    offsets,
    periodic,
    reflect,
    require_periodic,
    sample_iid,
    validate,
)
from rwre_ldp.errors import ConfigError, WindowExhaustedError

from .strategies import environments, examples, jump_laws, windows


def test_offsets_order():
    assert offsets(2).tolist() == [-2, -1, 1, 2]


@pytest.mark.parametrize("b", [1, 2, 3])
def test_offset_index_inverts_offsets(b):
    for j, z in enumerate(offsets(b)):
        assert offset_index(b, int(z)) == j
    for z in (0, b + 1, -b - 1):
        with pytest.raises(ValueError):
            offset_index(b, z)


class TestClassLayout:
    ENV = periodic([
        JumpLaw.from_dict({"-2": 0.1, "-1": 0.3, "1": 0.3, "2": 0.3}),
        JumpLaw.from_dict({"-1": 0.35, "1": 0.35, "2": 0.3}, b=2),
        JumpLaw.from_dict({"-2": 0.2, "-1": 0.3, "1": 0.25, "2": 0.25}),
    ])

    def test_class_probs_rows_are_the_laws(self):
        probs = self.ENV.probs
        assert probs.shape == (3, 4)
        assert not probs.flags.writeable
        for i, law in enumerate(self.ENV.laws):
            np.testing.assert_array_equal(probs[i], law.as_array())

    @pytest.mark.parametrize("L", [1, 2, 3, 5])
    def test_class_cycle_matches_site_loop(self, L):
        rows = np.random.default_rng(L).random((L, 4))
        want = np.zeros((L, L))
        for i in range(L):
            for j, z in enumerate(offsets(2)):
                want[i, (i + int(z)) % L] += rows[i, j]
        # same additions in the same order, so equal to the last bit
        env = periodic([self.ENV.laws[0]] * L)
        np.testing.assert_array_equal(class_cycle(env, rows), want)

    @pytest.mark.parametrize("L,b", [(1, 1), (2, 3), (5, 2)])
    def test_layout_is_cached_and_read_only(self, L, b):
        # offsets per jump bound; the cycle layout per environment object
        assert offsets(b) is offsets(b)
        env = periodic([JumpLaw(b=b, probs=((-1, 0.5), (1, 0.5)))] * L)
        dst, flat = env.targets, env.cycle_index
        assert env.targets is dst and env.cycle_index is flat
        for arr in (offsets(b), dst, flat):
            assert not arr.flags.writeable
        for i in range(L):
            for j, z in enumerate(offsets(b)):
                assert dst[i, j] == (i + z) % L
                assert flat[j * L + i] == i * L + dst[i, j]

    def test_require_periodic(self):
        require_periodic(self.ENV, "this check")
        window = sample_iid([(1.0, self.ENV.laws[0])], -5, 5, seed=3)
        with pytest.raises(ValueError, match="this check requires"):
            require_periodic(window, "this check")


@settings(max_examples=examples(100), deadline=None)
@given(st.one_of(environments(max_b=3, max_period=8), windows(max_b=3)))
def test_environment_owns_its_table(env):
    fresh = Environment(kind=env.kind, b=env.b, delta=env.delta, laws=env.laws,
                        window=env.window, seed=env.seed)
    h = hash(fresh)
    probs = env.probs
    assert probs.shape == (len(env.laws), 2 * env.b) and not probs.flags.writeable
    for row, law in zip(probs, env.laws):
        np.testing.assert_array_equal(row, law.as_array())
    assert env.probs is probs  # built once per object
    if env.kind == "iid":
        with pytest.raises(ValueError, match="requires a homogeneous or periodic"):
            env.targets
    else:
        L = env.period
        want = [[(i + int(z)) % L for z in offsets(env.b)] for i in range(L)]
        assert env.targets.tolist() == want and not env.targets.flags.writeable
        assert not env.cycle_index.flags.writeable
    # the table takes no part in equality or hash
    assert fresh == env and hash(fresh) == hash(env) == h
    back = pickle.loads(pickle.dumps(env))
    assert back == env and hash(back) == h
    assert not {"probs", "targets", "cycle_index"} & set(vars(back))
    np.testing.assert_array_equal(back.probs, probs)
    assert not back.probs.flags.writeable


class TestJumpLaw:
    def test_basic_construction(self):
        law = JumpLaw.from_dict({-1: 0.25, 1: 0.75})
        assert law.b == 1
        assert law.prob(1) == 0.75
        assert law.prob(2) == 0.0
        assert law.mean() == pytest.approx(0.5)

    def test_string_keys_and_missing_offsets(self):
        law = JumpLaw.from_dict({"-2": 0.2, "-1": 0.3, "1": 0.5}, b=2)
        assert law.support == (-2, -1, 1)
        assert law.prob(2) == 0.0

    def test_rejects_offset_zero(self):
        with pytest.raises(ValueError, match="outside"):
            JumpLaw(b=1, probs=((-1, 0.2), (0, 0.3), (1, 0.5)))

    def test_rejects_bad_normalization(self):
        with pytest.raises(ValueError, match="sum to"):
            JumpLaw(b=1, probs=((-1, 0.25), (1, 0.74)))

    def test_rejects_missing_unit_steps(self):
        with pytest.raises(ValueError, match=r"\+1 and -1"):
            JumpLaw(b=2, probs=((-2, 0.5), (-1, 0.25), (2, 0.25)))

    def test_normalization_within_1e12_accepted(self):
        law = JumpLaw(b=1, probs=((-1, 0.25), (1, 0.75 + 1e-13)))
        assert abs(sum(p for _, p in law.probs) - 1.0) <= 1e-12

    def test_as_array_alignment(self):
        law = JumpLaw.from_dict({-2: 0.1, -1: 0.4, 1: 0.2, 2: 0.3})
        assert law.as_array().tolist() == [0.1, 0.4, 0.2, 0.3]

    def test_reflection_swaps_offsets(self):
        law = JumpLaw.from_dict({-2: 0.1, -1: 0.4, 1: 0.2, 2: 0.3})
        ref = law.reflected()
        assert ref.prob(2) == 0.1
        assert ref.prob(-1) == 0.2
        assert ref.reflected() == law

    @given(jump_laws())
    def test_random_laws_normalized(self, law):
        assert abs(sum(p for _, p in law.probs) - 1.0) <= 1e-12
        assert law.prob(1) > 0 and law.prob(-1) > 0


class TestEnvironmentStructure:
    def test_homogeneous_same_law_everywhere(self):
        env = homogeneous({-1: 0.5, 1: 0.5})
        for x in (-5, 0, 7):
            assert law_at(env, x) is env.laws[0]

    def test_periodic_wraps_negative_sites(self):
        laws = [
            JumpLaw.from_dict({-1: 0.3, 1: 0.7}),
            JumpLaw.from_dict({-1: 0.4, 1: 0.6}),
            JumpLaw.from_dict({-1: 0.5, 1: 0.5}),
        ]
        env = periodic(laws)
        assert law_at(env, -1) == laws[2]
        assert law_at(env, 3) == laws[0]
        assert law_at(env, -4) == laws[2]

    def test_window_lookup_and_exhaustion(self):
        law = JumpLaw.from_dict({-1: 0.5, 1: 0.5})
        env = Environment(
            kind="iid", b=1, delta=0.5, laws=(law,) * 7, window=(-3, 3), seed=1
        )
        assert law_at(env, -3) == law
        with pytest.raises(WindowExhaustedError, match="widen"):
            law_at(env, 4)

    def test_window_must_straddle_origin(self):
        law = JumpLaw.from_dict({-1: 0.5, 1: 0.5})
        with pytest.raises(ValueError, match="straddle"):
            Environment(kind="iid", b=1, delta=0.5, laws=(law,) * 3, window=(1, 3), seed=1)

    def test_delta_range_enforced(self):
        with pytest.raises(ValueError, match="ellipticity"):
            homogeneous({-1: 0.5, 1: 0.5}, delta=0.7)


class TestReflect:
    def test_periodic_two_reflection_formula(self):
        p0 = JumpLaw.from_dict({-1: 0.2, 1: 0.8})
        p1 = JumpLaw.from_dict({-1: 0.6, 1: 0.4})
        env = periodic([p0, p1])
        ref = reflect(env)
        # q_i(z) = p_{(-i) mod 2}(-z)
        for i in range(2):
            for z in (-1, 1):
                assert ref.laws[i].prob(z) == env.laws[(-i) % 2].prob(-z)

    def test_window_reflection_indexing(self):
        laws = tuple(
            JumpLaw.from_dict({-1: 0.5 - k * 0.02, 1: 0.5 + k * 0.02}) for k in range(5)
        )
        env = Environment(kind="iid", b=1, delta=0.3, laws=laws, window=(-2, 2), seed=9)
        ref = reflect(env)
        assert ref.window == (-2, 2)
        for x in range(-2, 3):
            assert law_at(ref, x) == law_at(env, -x).reflected()

    @given(environments())
    def test_reflect_is_involution(self, env):
        assert reflect(reflect(env)) == env
        assert hash(reflect(reflect(env))) == hash(env)

    @given(environments(), st.integers(-10, 10))
    def test_reflect_pointwise_identity(self, env, x):
        ref = reflect(env)
        for z in offsets(env.b):
            assert law_at(ref, x).prob(int(z)) == law_at(env, -x).prob(int(-z))


class TestHash:
    @staticmethod
    def build() -> Environment:
        return periodic([
            {"-1": 0.3, "1": 0.7},
            JumpLaw.from_dict({"-2": 0.1, "-1": 0.3, "1": 0.4, "2": 0.2}),
        ])

    def test_equal_environments_hash_equal(self):
        a, b = self.build(), self.build()
        assert a is not b
        assert a == b and hash(a) == hash(b)
        twice = reflect(reflect(a))
        assert twice == a and hash(twice) == hash(a)

    def test_equality_stays_fieldwise(self):
        a = self.build()
        hash(a)  # a cached hash takes no part in equality
        other = Environment(kind=a.kind, b=a.b, delta=a.delta / 2, laws=a.laws)
        assert other != a
        assert Environment(kind=a.kind, b=a.b, delta=a.delta, laws=a.laws) == a

    def test_cached_table_is_not_pickled(self):
        env = self.build()
        h = hash(env)
        env.probs, env.targets, env.cycle_index  # build the tables
        back = pickle.loads(pickle.dumps(env))
        # an array comes back from a pickle writeable: the tables stay
        # behind and are rebuilt, read-only, on first use
        assert not {"probs", "targets", "cycle_index"} & set(vars(back))
        assert back == env and hash(back) == h
        for name in ("probs", "targets", "cycle_index"):
            np.testing.assert_array_equal(getattr(back, name), getattr(env, name))
            assert not getattr(back, name).flags.writeable


class TestValidate:
    def test_ellipticity_violation_flagged(self):
        law = JumpLaw.from_dict({-1: 0.99, 1: 0.01})
        env = Environment(kind="homogeneous", b=1, delta=0.05, laws=(law,))
        diag = validate(env)
        assert not diag.ok
        assert any("prob(+1)=0.01" in v for v in diag.violations)

    def test_clean_environment_passes(self):
        env = periodic(
            [{-1: 0.3, 1: 0.7}, {-1: 0.45, 1: 0.55}],
        )
        diag = validate(env)
        assert diag.ok
        assert diag.min_prob_plus == 0.55
        assert diag.min_prob_minus == 0.3
        assert diag.normalization_error <= 1e-12
        assert diag.max_abs_log_prob == pytest.approx(abs(math.log(0.3)))


class TestSampleIid:
    ATOMS = [
        (0.5, JumpLaw.from_dict({-1: 0.3, 1: 0.7})),
        (0.5, JumpLaw.from_dict({-1: 0.6, 1: 0.4})),
    ]

    def test_deterministic_given_seed(self):
        a = sample_iid(self.ATOMS, -20, 20, seed=7)
        b = sample_iid(self.ATOMS, -20, 20, seed=7)
        assert a == b

    def test_different_seeds_differ(self):
        a = sample_iid(self.ATOMS, -50, 50, seed=7)
        b = sample_iid(self.ATOMS, -50, 50, seed=8)
        assert a != b

    def test_window_growth_keeps_sites(self):
        small = sample_iid(self.ATOMS, -5, 5, seed=3)
        # growing only the right edge keeps shared sites identical because
        # site x consumes draw number x - x_lo
        big = sample_iid(self.ATOMS, -5, 9, seed=3)
        for x in range(-5, 6):
            assert law_at(big, x) == law_at(small, x)

    def test_all_laws_from_pool(self):
        env = sample_iid(self.ATOMS, -30, 30, seed=11)
        pool = {self.ATOMS[0][1], self.ATOMS[1][1]}
        assert set(env.laws) <= pool


class TestJson:
    def test_round_trip_periodic(self):
        env = periodic([{-1: 0.2, 1: 0.8}, {-2: 0.1, -1: 0.3, 1: 0.35, 2: 0.25}])
        assert env_from_json(env_to_json(env)) == env

    def test_round_trip_homogeneous_and_window(self):
        h = homogeneous({-1: 0.4, 1: 0.6})
        assert env_from_json(env_to_json(h)) == h
        w = sample_iid(TestSampleIid.ATOMS, -4, 4, seed=5)
        assert env_from_json(env_to_json(w)) == w

    def test_iid_from_atoms_matches_sample_iid(self):
        doc = {
            "type": "iid",
            "B": 1,
            "delta": 0.3,
            "window": [-6, 6],
            "seed": 13,
            "atoms": [
                {"weight": 1.0, "law": {"-1": 0.3, "1": 0.7}},
                {"weight": 1.0, "law": {"-1": 0.6, "1": 0.4}},
            ],
        }
        env = env_from_json(doc)
        direct = sample_iid(
            [(1.0, JumpLaw.from_dict({-1: 0.3, 1: 0.7})), (1.0, JumpLaw.from_dict({-1: 0.6, 1: 0.4}))],
            -6,
            6,
            seed=13,
            delta=0.3,
        )
        assert env == direct

    def test_missing_keys_are_pointed_at(self):
        with pytest.raises(ConfigError, match="environment.type"):
            env_from_json({"B": 1})
        with pytest.raises(ConfigError, match="environment.B"):
            env_from_json({"type": "periodic"})
        with pytest.raises(ConfigError, match=r"environment.laws\[0\]"):
            env_from_json({"type": "periodic", "B": 1, "laws": [{"0": 1.0}]})

    @given(environments())
    def test_round_trip_random(self, env):
        assert env_from_json(env_to_json(env)) == env


class TestRngModule:
    def test_streams_disjoint_and_reproducible(self):
        from rwre_ldp import rng

        a = rng.uniform(rng.stream_key(42, 0), 0, 64)
        b = rng.uniform(rng.stream_key(42, 1), 0, 64)
        assert not np.array_equal(a, b)
        again = rng.uniform(rng.stream_key(42, 0), 0, 64)
        np.testing.assert_array_equal(a, again)
        assert np.all((a >= 0) & (a < 1))
