"""Passage-time MGF solves, Lyapunov exponents, criticality estimates.

Expected values come from independent routes: closed forms for
nearest-neighbor laws, a quartic root solve for the one bounded-jump law
used throughout, exhaustive finite-horizon enumeration for small levels,
and a one-cycle discriminant for the 2-periodic threshold.
"""

import dataclasses
import hashlib
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre_ldp.environment import (
    Environment,
    JumpLaw,
    class_cycle,
    homogeneous,
    offsets,
    periodic,
    reflect,
    sample_iid,
)
from rwre_ldp import passage
from rwre_ldp.errors import SlowConvergenceError, SupercriticalError, WindowExhaustedError
from rwre_ldp.passage import (
    brute_mgf,
    char_poly_roots,
    contraction_rate,
    drift_limits,
    edge_rate,
    estimate_rc,
    hit_mgf,
    lambda_curve,
    log_perron,
    lyapunov,
    lyapunov_bar,
    lyapunov_grid,
    u_limit,
    zeta_nn,
)
from rwre_ldp.tilt import tilt_kernel

from .refusing_lapack import refusing
from .strategies import environments, examples, jump_laws

SYM_NN = homogeneous(JumpLaw(b=1, probs=((-1, 0.5), (1, 0.5))))
BIASED_NN = homogeneous(JumpLaw(b=1, probs=((-1, 0.25), (1, 0.75))))
PER2_NN = periodic(
    [
        JumpLaw(b=1, probs=((-1, 0.2), (1, 0.8))),
        JumpLaw(b=1, probs=((-1, 0.6), (1, 0.4))),
    ]
)
# zero-drift bounded-jump law with an asymmetric profile
WIDE_LAW = JumpLaw(b=2, probs=((-2, 1 / 7), (-1, 3 / 7), (1, 1 / 7), (2, 2 / 7)))
WIDE = homogeneous(WIDE_LAW)
# drifted bounded-jump law, used where a positive threshold is needed
DRIFT2_LAW = JumpLaw(b=2, probs=((-2, 0.1), (-1, 0.2), (1, 0.3), (2, 0.4)))
DRIFT2 = homogeneous(DRIFT2_LAW)
# one class lacks the -2 jump: attainable drifts are [-1.5, 2.0]
B2_NO_MINUS2 = periodic(
    [
        JumpLaw(b=2, probs=((-2, 0.1), (-1, 0.3), (1, 0.3), (2, 0.3))),
        JumpLaw(b=2, probs=((-2, 0.2), (-1, 0.3), (1, 0.25), (2, 0.25))),
        JumpLaw(b=2, probs=((-1, 0.35), (1, 0.35), (2, 0.3))),
    ]
)


# full support and rightward drift (the B = 2 environment of the benchmark's
# simulation checks)
B2_DRIFTED = periodic(
    [
        JumpLaw(b=2, probs=((-2, 0.1), (-1, 0.2), (1, 0.3), (2, 0.4))),
        JumpLaw(b=2, probs=((-2, 0.15), (-1, 0.25), (1, 0.3), (2, 0.3))),
        JumpLaw(b=2, probs=((-2, 0.1), (-1, 0.3), (1, 0.25), (2, 0.35))),
    ]
)


def full_support_b2(length: int) -> Environment:
    """Deterministic B=2 law with every offset present at every class."""
    laws = []
    for i in range(length):
        w = [1.0 + ((3 * i + 5 * j) % 7) / 4.0 for j in range(4)]
        t = sum(w)
        laws.append(JumpLaw(b=2, probs=tuple(zip((-2, -1, 1, 2), (x / t for x in w)))))
    return periodic(laws)


def nn_zeta_closed(p: float, r: float) -> float:
    """Minimal root of q e z^2 - z + p e = 0: the one-step passage MGF."""
    q = 1.0 - p
    e = math.exp(r)
    return (1.0 - math.sqrt(1.0 - 4.0 * p * q * e * e)) / (2.0 * q * e)


class TestZeta:
    def test_symmetric_closed_form(self):
        zs = zeta_nn(SYM_NN, -0.1)
        assert zs.converged and zs.residual < 1e-13
        assert zs.zeta[0] == pytest.approx(nn_zeta_closed(0.5, -0.1), abs=1e-14)
        assert zs.zeta[0] == pytest.approx(0.6346363729462068, abs=1e-13)

    def test_biased_closed_form(self):
        zs = zeta_nn(BIASED_NN, -0.1)
        assert zs.zeta[0] == pytest.approx(0.8371663074439565, abs=1e-13)

    def test_periodic2_cycle(self):
        zs = zeta_nn(PER2_NN, -0.2)
        assert zs.zeta[0] == pytest.approx(0.7139516381432621, abs=1e-12)
        assert zs.zeta[1] == pytest.approx(0.5043934082738223, abs=1e-12)

    def test_supercritical_raises(self):
        # threshold for the 3/4-up walk is -log(2 sqrt(pq)) ~ 0.1438
        with pytest.raises(SupercriticalError):
            zeta_nn(BIASED_NN, 0.3)

    def test_wrong_reach(self):
        with pytest.raises(ValueError):
            zeta_nn(WIDE, -0.5)

    def test_window_rejected(self):
        env = sample_iid(
            [
                (0.5, JumpLaw(b=1, probs=((-1, 0.3), (1, 0.7)))),
                (0.5, JumpLaw(b=1, probs=((-1, 0.6), (1, 0.4)))),
            ],
            x_lo=-60,
            x_hi=60,
            seed=7,
        )
        with pytest.raises(ValueError):
            zeta_nn(env, -0.3)

    def test_unsettled_sweep_raises(self):
        # at the critical tilt of a fair walk the sweep creeps towards 1 and
        # runs out of cycles at lambda = -1.7e-7, not 0, while its rows still
        # pass the 1e-10 residual check
        env = periodic([{-1: 0.5, 1: 0.5}] * 3)
        with pytest.raises(SlowConvergenceError) as exc:
            lyapunov(env, 0.0)
        assert exc.value.diagnostics == {"r": 0.0, "cycles": passage._ZETA_MAX_CYCLES}


class TestLyapunov:
    def test_symmetric_value(self):
        s = lyapunov(SYM_NN, -0.1)
        assert s.converged
        assert s.value == pytest.approx(-0.45470308514053537, abs=1e-12)
        # symmetric law: both passage directions match
        sb = lyapunov_bar(SYM_NN, -0.1)
        assert sb.value == pytest.approx(s.value, abs=1e-12)

    def test_periodic2_value(self):
        s = lyapunov(PER2_NN, -0.2)
        assert s.value == pytest.approx(-0.5106693980281269, abs=1e-12)

    def test_direction_gap_is_log_odds_mean(self):
        # for B=1 the two directions differ by E[log(q/p)], independent of r
        expect = 0.5 * (math.log(0.2 / 0.8) + math.log(0.6 / 0.4))
        for r in (-0.15, -0.7, -1.8):
            gap = lyapunov_bar(PER2_NN, r).value - lyapunov(PER2_NN, r).value
            assert gap == pytest.approx(expect, abs=1e-10)

    def test_homogeneous_direction_gap(self):
        expect = math.log(0.25 / 0.75)
        for r in (-0.3, -1.0):
            gap = lyapunov_bar(BIASED_NN, r).value - lyapunov(BIASED_NN, r).value
            assert gap == pytest.approx(expect, abs=1e-10)

    def test_supercritical_is_inf(self):
        s = lyapunov(BIASED_NN, 0.3)
        assert s.value == math.inf and not s.converged and s.status == "supercritical"

    def test_wide_law_pipeline_matches_quartic(self):
        # independent oracle: positive roots of 2x^4 + x^3 - 7 e^{-r} x^2 + 3x + 1
        table = {
            -0.25: (0.6078910569244823, 1.6004446612528236),
            -0.5: (0.47964660997117914, 1.9736581243094142),
            -1.0: (0.32747350149592747, 2.7438951294744296),
            -2.0: (0.17149815260514867, 4.8087192265577094),
        }
        for r, (xl, xr) in table.items():
            lam = lyapunov(WIDE, r).value
            lam_bar = lyapunov_bar(WIDE, r).value
            assert lam == pytest.approx(-math.log(xr), abs=1e-10)
            assert lam_bar == pytest.approx(math.log(xl), abs=1e-10)

    def test_wide_law_direction_gap_varies(self):
        gaps = [
            lyapunov_bar(WIDE, r).value - lyapunov(WIDE, r).value
            for r in (-0.25, -0.5, -1.0, -2.0)
        ]
        spread = max(gaps) - min(gaps)
        assert spread == pytest.approx(0.1652739169769284, abs=1e-9)
        assert spread > 1e-3  # genuinely direction-asymmetric beyond B=1

    def test_window_average(self):
        env = sample_iid(
            [
                (0.5, JumpLaw(b=1, probs=((-1, 0.35), (1, 0.65)))),
                (0.5, JumpLaw(b=1, probs=((-1, 0.55), (1, 0.45)))),
            ],
            x_lo=-80,
            x_hi=80,
            seed=3,
        )
        s = lyapunov(env, -0.4)
        assert math.isfinite(s.value) and s.converged
        assert s.se >= 0 and math.isfinite(s.se)
        assert s.value <= -(math.log(env.delta) + -0.4) + 1e-9


class TestULimit:
    def test_row_stochasticity_residual(self):
        ul = u_limit(WIDE, -0.5)
        assert ul.mode == "periodic-exact"
        assert ul.residual < 1e-12
        # tilted row sums: sum_z pi(z) e^r u(0,z) = 1
        total = sum(p * math.exp(-0.5) * ul.u_at(0, z) for z, p in WIDE_LAW.probs)
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_ratio_bounds(self):
        ul = u_limit(PER2_NN, -0.3)
        bound = -(math.log(PER2_NN.delta) + -0.3)
        assert np.all(np.abs(ul.log_a) <= bound + 1e-9)

    def test_chain_rule_across_offsets(self):
        # u(x, 2) must equal u(x, 1) u(x+1, 1) in the stabilized limit
        ul = u_limit(DRIFT2, -0.8)
        for i in range(len(ul.sites)):
            lhs = ul.log_u_at(i, 2)
            rhs = ul.log_u_at(i, 1) + ul.log_u_at(i + 1, 1)
            assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_window_mode(self):
        env = sample_iid(
            [
                (0.5, JumpLaw(b=1, probs=((-1, 0.3), (1, 0.7)))),
                (0.5, JumpLaw(b=1, probs=((-1, 0.5), (1, 0.5)))),
            ],
            x_lo=-50,
            x_hi=50,
            seed=11,
        )
        ul = u_limit(env, -0.5, site_range=(-20, 20))
        assert ul.mode == "window"
        assert ul.cauchy_gap < 1e-8
        with pytest.raises(WindowExhaustedError):
            ul.log_u_at(45, 1)


PER2_NN_STEEP = periodic(
    [
        JumpLaw(b=1, probs=((-1, 0.1), (1, 0.9))),
        JumpLaw(b=1, probs=((-1, 0.3), (1, 0.7))),
    ]
)


def numpy_zeta_nn(env: Environment, r: float) -> passage.ZetaSolve:
    """The zeta recursion as it ran on numpy scalars before its sweep moved
    to Python floats: an oracle for that sweep, bit for bit."""
    e = math.exp(r)
    L = env.period
    q, p = env.probs.T
    zeta = np.zeros(L)
    upper = 1.0 if r <= 0 else 1.0 / (env.delta * e)
    cycles = 0
    prev = zeta.copy()
    while cycles < passage._ZETA_MAX_CYCLES:
        cycles += 1
        for i in range(L):
            den = 1.0 - q[i] * e * zeta[(i - 1) % L]
            if den <= 0.0:
                raise SupercriticalError(
                    f"zeta recursion denominator {den} <= 0 at class {i}",
                    r=r,
                    diagnostics={"cycles": cycles, "class": i},
                )
            zeta[i] = p[i] * e / den
        if np.any(zeta > 1.01 * upper):
            raise SupercriticalError(
                "zeta recursion exceeded its subcritical bound",
                r=r,
                diagnostics={"cycles": cycles, "max_zeta": float(zeta.max())},
            )
        change = float(np.max(np.abs(zeta - prev)))
        if change <= passage._ZETA_TOL:
            break
        prev = zeta.copy()
    resid = 0.0
    for i in range(L):
        resid = max(
            resid,
            abs(p[i] * e / zeta[i] + q[i] * e * zeta[(i - 1) % L] - 1.0),
        )
    return passage.ZetaSolve(r=r, zeta=zeta, cycles=cycles, residual=resid,
                             converged=change <= passage._ZETA_TOL)


def zeta_outcome(solve, env: Environment, r: float) -> tuple:
    """Everything a zeta solve returns or raises, floats by their bits."""
    try:
        zs = solve(env, r)
    except SupercriticalError as e:
        return type(e), str(e), e.r, repr(e.diagnostics)
    assert isinstance(zs.zeta, np.ndarray)
    return zs.zeta.tobytes(), zs.cycles, float(zs.residual).hex(), zs.converged


class TestZetaFloatSweep:
    """The float sweep of `zeta_nn` against the numpy-scalar one it
    replaced: the same zeta bytes, cycles, residual and verdict, or the same
    error, below and above the threshold."""

    @settings(max_examples=examples(40), deadline=None)
    @given(st.integers(1, 64).flatmap(lambda n: st.lists(jump_laws(b=1), min_size=n, max_size=n)),
           st.floats(0.01, 3.0), st.floats(0.0, 0.9), st.floats(0.01, 1.0))
    def test_matches_the_numpy_sweep(self, laws, below, frac, above):
        env = periodic(laws)
        rc = estimate_rc(env).value
        # positive tilts below r_c only where they stay clear of it: the
        # sweep slows like (r_c - r)^(-1/2) there
        for r in [-below, *([frac * rc] if rc > 0.01 else []), rc + above]:
            assert zeta_outcome(zeta_nn, env, r) == zeta_outcome(numpy_zeta_nn, env, r)

    @pytest.mark.parametrize("env", [BIASED_NN, PER2_NN, SYM_NN, PER2_NN_STEEP],
                             ids=["biased", "per2", "sym", "per2-steep"])
    def test_matches_the_numpy_sweep_across_the_threshold(self, env):
        # both supercritical verdicts (a nonpositive denominator, zeta past
        # its bound) and positive subcritical tilts, clear of r_c
        rc = estimate_rc(env).value
        rs = [float(r) for r in np.linspace(-0.2, 3.0 * rc + 0.5, 25) if abs(r - rc) > 0.01]
        outcomes = [zeta_outcome(zeta_nn, env, r) for r in rs]
        assert outcomes == [zeta_outcome(numpy_zeta_nn, env, r) for r in rs]

    def test_matches_the_numpy_sweep_on_a_long_period(self):
        # mixed drifts: r_c is about 3.7e-4 (estimate_rc, too slow to run here)
        ps = np.random.default_rng(5).uniform(0.3, 0.8, 1024)
        env = periodic([JumpLaw(b=1, probs=((-1, 1.0 - p), (1, p))) for p in ps.tolist()])
        rs = (-0.5, 2e-4, 6e-4, 0.5)
        outcomes = [zeta_outcome(zeta_nn, env, r) for r in rs]
        assert [o[0] is SupercriticalError for o in outcomes] == [False, False, True, True]
        assert outcomes == [zeta_outcome(numpy_zeta_nn, env, r) for r in rs]


class TestHarmonicRatios:
    """Closed-form periodic ratios: the zeta route for B=1, the Perron
    vector for B>=2, both certified by their row-stochasticity residual."""

    @settings(max_examples=examples(100), deadline=None)
    @given(environments(max_b=3, max_period=64), st.floats(-2.0, -0.01))
    def test_rows_and_chain_rule(self, env, r):
        ul = u_limit(env, r)
        assert ul.residual <= 1e-11
        L = env.period
        theta = ul.log_a
        for j, z in enumerate(offsets(env.b)):
            z = int(z)
            for i in range(L):
                if z > 0:
                    want = sum(theta[(i + k) % L] for k in range(z))
                else:
                    want = -sum(theta[(i - k) % L] for k in range(1, -z + 1))
                assert ul.log_u[i, j] == pytest.approx(want, abs=1e-12)
        if env.b == 1:
            assert np.array_equal(theta, -np.log(zeta_nn(env, r).zeta))

    NN = periodic(
        [
            JumpLaw(b=1, probs=((-1, 0.45), (1, 0.55))),
            JumpLaw(b=1, probs=((-1, 0.35), (1, 0.65))),
            JumpLaw(b=1, probs=((-1, 0.6), (1, 0.4))),
        ]
    )
    B2 = periodic(
        [
            JumpLaw(b=2, probs=((-2, 0.15), (-1, 0.3), (1, 0.3), (2, 0.25))),
            JumpLaw(b=2, probs=((-2, 0.05), (-1, 0.4), (1, 0.35), (2, 0.2))),
        ]
    )

    def test_perturbed_zeta_raises(self, monkeypatch):
        solve = passage.zeta_nn

        def perturbed(env, r):
            zs = solve(env, r)
            return dataclasses.replace(zs, zeta=zs.zeta * (1.0 + 1e-6))

        monkeypatch.setattr(passage, "zeta_nn", perturbed)
        with pytest.raises(SlowConvergenceError) as exc:
            u_limit(self.NN, -0.45)
        assert exc.value.diagnostics["r"] == -0.45
        assert exc.value.diagnostics["residual"] > 1e-10

    def test_perturbed_perron_root_raises(self, monkeypatch):
        root = passage._perron_root

        def perturbed(env, r, start, direction):
            pt = yield from root(env, r, start, direction)
            return dataclasses.replace(pt, s=pt.s + 1e-6)

        monkeypatch.setattr(passage, "_perron_root", perturbed)
        with pytest.raises(SlowConvergenceError) as exc:
            u_limit(self.B2, -0.55)
        diag = exc.value.diagnostics
        assert diag["r"] == -0.55
        assert diag["residual"] > 1e-10
        assert math.isfinite(diag["s"])


    @pytest.mark.parametrize("b", [1, 2])
    def test_ratios_past_the_declared_floor_raise(self, b):
        # a declared ellipticity floor above the smallest unit-jump mass: the
        # ratios certify but leave the bound -(log delta + r); for b = 2 the
        # same laws, without +-2 jumps, take the Perron route
        env = periodic([JumpLaw(b=b, probs=law.probs) for law in self.NN.laws])
        object.__setattr__(env, "delta", 0.5)  # past the check at construction
        with pytest.raises(SlowConvergenceError) as exc:
            u_limit(env, -1.0)
        assert str(exc.value) == "stabilized ratios violate their ellipticity bounds"
        diag = exc.value.diagnostics
        assert diag["bound"] == -(math.log(0.5) - 1.0)
        assert diag["max_log_ratio"] > diag["bound"] + 1e-8
        with pytest.raises(SlowConvergenceError) as grid_exc:
            lyapunov_grid(env, [-0.1, -1.0, -0.5])
        assert grid_exc.value.diagnostics == diag


def limit_outcome(entry) -> tuple:
    """A `_periodic_limits` entry, floats and arrays by their bits."""
    if isinstance(entry, Exception):
        return type(entry), str(entry), repr(entry.diagnostics)
    return (entry.log_u.tobytes(), entry.log_u.shape, entry.residual.hex(), entry.n_used,
            entry.direction, entry.r)


@settings(max_examples=examples(40), deadline=None)
@given(environments(max_b=3, max_period=12), st.randoms(use_true_random=False))
def test_stacked_certificates_match_tilt_by_tilt(env, rnd):
    # each direction's ratio rows are certified as one stack; every entry is
    # the one a call at its tilt alone gives, errors included
    rc = estimate_rc(env).value
    # a positive tilt below r_c only where the zeta sweep stays quick
    rs = [-1.5, -0.4, -0.05, *([0.5 * rc] if rc > 0.01 else []), rc + 0.02, rc + 0.7]
    rnd.shuffle(rs)
    stacked = passage._periodic_limits(env, rs, (1, -1))
    assert len(stacked) == 2 * len(rs)
    alone = [passage._periodic_limits(env, (r,), (d,))[0] for r in rs for d in (1, -1)]
    assert [limit_outcome(e) for e in stacked] == [limit_outcome(e) for e in alone]
    assert any(isinstance(e, SupercriticalError) for e in stacked)
    for d in (1, -1):
        rows = [e for e in stacked[(1 - d) // 2::2] if not isinstance(e, Exception)]
        assert all(not e.log_u.flags.writeable for e in rows)
        assert len({id(e.log_u.base) for e in rows}) == 1


class TestHitMgf:
    def test_matches_exhaustive_enumeration(self):
        brute = brute_mgf(WIDE, -0.5, level=1, max_len=26)
        assert brute.value == pytest.approx(0.3280665328223357, abs=1e-12)
        sol = hit_mgf(WIDE, -0.5, level=1, m_trunc=60, tol=1e-13)
        assert sol.converged
        slack = brute.tail_bound + sol.err_bound + 1e-10
        assert abs(sol.h_at(0) - brute.value) <= slack

    def test_enumeration_tail_bound(self):
        short = brute_mgf(WIDE, -0.5, level=1, max_len=12)
        long = brute_mgf(WIDE, -0.5, level=1, max_len=40)
        assert long.value >= short.value
        assert long.value - short.value <= short.tail_bound

    def test_monotone_in_truncation_depth(self):
        shallow = hit_mgf(WIDE, -0.4, level=6, m_trunc=12, tol=1e-13)
        deep = hit_mgf(WIDE, -0.4, level=6, m_trunc=24, tol=1e-13)
        for x in range(-12, 6):
            assert deep.log_h_at(x) >= shallow.log_h_at(x) - 1e-12

    def test_divergence_flagged(self):
        sol = hit_mgf(BIASED_NN, 0.5, level=8, m_trunc=32, tol=1e-12)
        assert sol.status == "supercritical-or-diverged"
        assert not sol.converged

    def test_err_bound_decreases(self):
        a = hit_mgf(WIDE, -0.5, level=4, m_trunc=20)
        b = hit_mgf(WIDE, -0.5, level=4, m_trunc=40)
        assert b.err_bound < a.err_bound

    @pytest.mark.parametrize("env, r, level, digest, sweeps, status, sup", [
        (PER2_NN, -0.3, 8,
         "6603e80e727b3fde1b3ef85425a54dea16de88438ee1a07c0346ab24c4157b65",
         595, "converged", 7.389644451905042e-13),
        (PER2_NN, 0.1, 8,
         "2a7c114e892c8d50828c7afd5ebde013dccc2a12fa5c758fa393f2b1a1b394b4",
         112, "supercritical-or-diverged", math.inf),
        (B2_DRIFTED, -0.05, 40,
         "a31283b3e81116830824a544b9b39d1cf84e436af7fa11dad5ee1d497087be5c",
         853, "converged", 9.414691248821327e-13),
        (B2_DRIFTED, 0.1, 8,
         "6de060283804a0f57ba1095e49eef383f91ba7a327c16933fd51e71950ad190f",
         256, "supercritical-or-diverged", 0.3209884185261762),
    ])
    def test_sweeps_match_pinned_output(self, env, r, level, digest, sweeps, status, sup):
        # values of the solver that allocated its candidate rows every sweep
        sol = hit_mgf(env, r, level)
        assert hashlib.sha256(sol.log_h.tobytes()).hexdigest() == digest
        assert (sol.iterations, sol.status, sol.sup_update) == (sweeps, status, sup)


class TestCharPoly:
    def test_quartic_roots_frozen(self):
        res = char_poly_roots(WIDE, -0.5)
        assert res.x_left == pytest.approx(0.47964660997117914, abs=1e-12)
        assert res.x_right == pytest.approx(1.9736581243094142, abs=1e-12)
        assert len(res.positive_roots) == 2
        assert max(res.residuals) < 1e-9

    def test_symmetric_nn_root(self):
        res = char_poly_roots(SYM_NN, -0.1)
        assert res.x_right == pytest.approx(1.5757054632050884, abs=1e-12)
        # p = q makes the polynomial palindromic: roots come in pairs x, 1/x
        assert res.x_left == pytest.approx(1.0 / res.x_right, abs=1e-12)

    def test_reflection_inverts_roots(self):
        a = char_poly_roots(WIDE, -0.5)
        b = char_poly_roots(reflect(WIDE), -0.5)
        assert a.x_left * b.x_right == pytest.approx(1.0, abs=1e-12)
        assert a.x_right * b.x_left == pytest.approx(1.0, abs=1e-12)

    def test_rejects_nonhomogeneous(self):
        with pytest.raises(ValueError):
            char_poly_roots(PER2_NN, -0.5)


def drifted_rc_oracle(law: JumpLaw) -> float:
    """-log min_{x>0} sum_z p(z) x^z by golden-section search."""
    def g(x: float) -> float:
        return sum(p * x**z for z, p in law.probs)

    lo, hi = 1e-3, 1e3
    phi = (math.sqrt(5) - 1) / 2
    a, b = math.log(lo), math.log(hi)
    c, d = b - phi * (b - a), a + phi * (b - a)
    for _ in range(200):
        if g(math.exp(c)) < g(math.exp(d)):
            b = d
        else:
            a = c
        c, d = b - phi * (b - a), a + phi * (b - a)
    return -math.log(g(math.exp(0.5 * (a + b))))


class TestCriticality:
    def test_biased_nn_threshold(self):
        rc = estimate_rc(BIASED_NN, tol=1e-7)
        oracle = -math.log(2.0 * math.sqrt(0.75 * 0.25))
        assert oracle == pytest.approx(0.14384103622589045, abs=1e-15)
        assert rc.bracket[0] - 1e-7 <= oracle <= rc.bracket[1] + 1e-7
        assert rc.width <= 2e-7

    def test_zero_drift_threshold_is_zero(self):
        rc = estimate_rc(WIDE, tol=1e-6)
        assert abs(rc.value) <= 2e-6

    def test_drifted_wide_threshold(self):
        oracle = drifted_rc_oracle(DRIFT2_LAW)
        rc = estimate_rc(DRIFT2, tol=1e-6)
        assert rc.bracket[0] - 1e-6 <= oracle <= rc.bracket[1] + 1e-6
        assert rc.width <= 1e-6

    def test_periodic2_threshold_one_cycle_discriminant(self):
        # tangency of the composed one-cycle map: discriminant of
        # q1 e z^2 - (1 + (p0 q1 - q0 p1) e^2) z + p0 e in z hits zero
        p0, q0, p1, q1 = 0.8, 0.2, 0.4, 0.6
        c = p0 * q1 - q0 * p1
        bc = 2 * c - 4 * p0 * q1
        u = (-bc - math.sqrt(bc * bc - 4 * c * c)) / (2 * c * c)
        oracle = 0.5 * math.log(u)
        assert oracle == pytest.approx(0.024638002691794978, abs=1e-15)
        rc = estimate_rc(PER2_NN, tol=1e-7)
        assert rc.bracket[0] - 1e-7 <= oracle <= rc.bracket[1] + 1e-7
        assert rc.width <= 1e-7

    def test_perron_bracket_certifies_closed_forms(self):
        # both ends are certified bounds, so the exact threshold lies inside
        # the bracket itself, which is no wider than asked
        per2 = 0.024638002691794978
        biased = -math.log(2.0 * math.sqrt(0.75 * 0.25))
        for env, oracle in ((PER2_NN, per2), (BIASED_NN, biased)):
            for tol in (1e-6, 1e-9):
                rc = estimate_rc(env, tol=tol)
                assert rc.predicate == "perron"
                assert rc.width <= tol
                assert rc.bracket[0] - 1e-13 <= oracle <= rc.bracket[1] + 1e-13
                a, b = rc.argmin
                assert log_perron(env, a).slope <= 0.0 <= log_perron(env, b).slope

    def test_threshold_below_ellipticity_ceiling(self):
        rc = estimate_rc(DRIFT2, tol=1e-4)
        assert -1e-4 <= rc.value <= -math.log(DRIFT2.delta) + 1e-4


class TestPerronCore:
    def test_stochastic_at_zero_tilt(self):
        # K_0 is the class-cycle jump matrix: Perron root 1, slope the drift
        pt = log_perron(DRIFT2, 0.0)
        assert pt.value == pytest.approx(0.0, abs=1e-14)
        assert pt.slope == pytest.approx(DRIFT2_LAW.mean(), abs=1e-14)

    def test_slope_matches_finite_difference(self):
        for s in (-1.3, 0.4, 2.5):
            h = 1e-5
            fd = (log_perron(B2_NO_MINUS2, s + h).value
                  - log_perron(B2_NO_MINUS2, s - h).value) / (2 * h)
            assert log_perron(B2_NO_MINUS2, s).slope == pytest.approx(fd, abs=1e-8)

    def test_drift_limits_are_extreme_cycle_means(self):
        assert drift_limits(B2_NO_MINUS2) == pytest.approx((-1.5, 2.0), abs=1e-15)
        assert drift_limits(PER2_NN) == pytest.approx((-1.0, 1.0), abs=1e-15)
        assert drift_limits(WIDE) == pytest.approx((-2.0, 2.0), abs=1e-15)

    def test_edge_rate_with_full_reach(self):
        # every class jumps +B: the edge cost is -log rho(P_B)
        expected = -math.log((0.3 * 0.25 * 0.3) ** (1 / 3))
        assert edge_rate(B2_NO_MINUS2, 1.0) == pytest.approx(expected, abs=1e-14)
        assert edge_rate(WIDE, -1.0) == pytest.approx(-math.log(1 / 7), abs=1e-14)

    def test_edge_rate_is_the_tilt_limit(self):
        # at the lower end no class-wide -2 jump exists; s xi - Lambda(s)
        # increases to the edge value as s -> -inf
        vals = [-1.5 * s - log_perron(B2_NO_MINUS2, s).value for s in (-10.0, -20.0, -40.0)]
        assert vals[0] < vals[1] < vals[2]
        assert edge_rate(B2_NO_MINUS2, -1.0) == pytest.approx(vals[2], abs=1e-9)


def dgeev_oracle(env: Environment, s: float) -> tuple[float, float]:
    """Lambda(s) and Lambda'(s) from LAPACK dgeev's left and right
    eigenvectors of the same scaled K_s, with K'_s built as its own matrix."""
    from scipy.linalg.lapack import dgeev  # the oracle only: the library is numpy-only

    offs = offsets(env.b)
    probs = env.probs
    shift = abs(s) * env.b
    w = np.exp(s * offs - shift)
    K = class_cycle(env, probs * w)
    wr, wi, vl, vr, info = dgeev(K)
    assert info == 0
    k = int(np.argmax(np.where(wi == 0.0, wr, -np.inf)))
    rho, l_vec, r_vec = float(wr[k]), vl[:, k], vr[:, k]
    # dgeev's vectors leave a residual of 1e-15, but their error is that
    # residual over the gap to the next eigenvalue, which Lambda' reads:
    # 1e-12 at L = 45 on a near-balanced cycle. One step of inverse
    # iteration, shifted just off rho so the system is never singular,
    # takes it off.
    shifted = K - rho * (1.0 + 2.0**-46) * np.eye(len(K))
    r_vec, l_vec = np.linalg.solve(shifted, r_vec), np.linalg.solve(shifted.T, l_vec)
    slope = float(l_vec @ class_cycle(env, probs * (w * offs)) @ r_vec) / (rho * float(l_vec @ r_vec))
    return math.log(rho) + shift, slope


class TestPerronOracle:
    """numpy's eigenvalues and bordered Perron-vector solves against dgeev,
    with the Collatz-Wielandt bracket as the certificate."""

    @settings(max_examples=examples(150), deadline=None)
    @given(environments(max_b=3, max_period=64), st.floats(-3.0, 3.0))
    def test_matches_dgeev_with_a_certified_bracket(self, env, s):
        value, slope = dgeev_oracle(env, s)
        pt = log_perron(env, s)
        assert abs(pt.value - value) <= 1e-15
        assert abs(pt.slope - slope) <= 1e-12
        lo, hi = pt.bracket
        assert lo - 1e-15 <= value <= hi + 1e-15
        assert 0.0 <= hi - lo <= 1e-10
        assert np.all(pt.right > 0.0)
        assert pt.right.sum() == pytest.approx(1.0, abs=1e-14)

    def test_bracket_is_the_collatz_wielandt_span_of_the_vector(self):
        s = 0.7
        pt = log_perron(B2_NO_MINUS2, s)
        K = class_cycle(B2_NO_MINUS2, B2_NO_MINUS2.probs * np.exp(s * offsets(2)))
        quot = (K @ pt.right) / pt.right
        assert pt.bracket == pytest.approx((math.log(quot.min()), math.log(quot.max())), abs=1e-14)

    def test_homogeneous_bracket_is_exact(self):
        pt = log_perron(DRIFT2, 0.4)
        assert pt.bracket == (pt.value, pt.value)
        mgf = sum(p * math.exp(0.4 * z) for z, p in DRIFT2_LAW.probs)
        assert pt.value == pytest.approx(math.log(mgf), abs=1e-15)

    # Known misses of the dense Perron core, pinned here so that they show in
    # every checkout, not only where a hypothesis database replays them.
    # 49 fair classes, then nine with p(-1) falling from 1/4 to 1/20 (L = 58)
    LONG_FAIR_RUN = periodic([{-1: 0.5, 1: 0.5}] * 49
                             + [{-1: 1 / k, 1: 1 - 1 / k} for k in range(4, 21, 2)])
    # two fair classes and one with a +3 loop that holds half its mass
    LOOP = periodic([{-1: 0.5, 1: 0.5}] * 2 + [{-1: 0.125, 1: 0.125, 2: 0.25, 3: 0.5}])

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 6")
    def test_long_fair_run_slope_meets_dgeev(self):
        # 3.7e-11 off
        _, slope = dgeev_oracle(self.LONG_FAIR_RUN, -0.5)
        assert abs(log_perron(self.LONG_FAIR_RUN, -0.5).slope - slope) <= 1e-12

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 6")
    def test_long_fair_run_bracket_is_narrow(self):
        # 5.6e-9 wide
        lo, hi = log_perron(self.LONG_FAIR_RUN, -0.5).bracket
        assert hi - lo <= 1e-10

    @pytest.mark.xfail(strict=True, raises=SlowConvergenceError, reason="ROADMAP item 6")
    @pytest.mark.parametrize("reflected, s", [(False, 17.58), (True, -9.87), (True, -14.46)])
    def test_loop_law_far_tilts(self, reflected, s):
        # "Perron vector of K_s not positive": entries of phi of 1e-17 and
        # below are lost; the +3 loop dominates, Lambda(s) = log 0.5 + 3|s|
        # up to e^{-2|s|}
        env = reflect(self.LOOP) if reflected else self.LOOP
        pt = log_perron(env, s)
        assert np.all(pt.right > 0.0)
        closed = math.log(0.5) + 3 * abs(s)
        assert pt.value == pytest.approx(closed, rel=1e-14, abs=math.exp(-2 * abs(s)))


class TestLinalgFailures:
    """LAPACK's refusals surface as SlowConvergenceError with the tilt."""

    def test_eigen_solve_failure(self, monkeypatch):
        with refusing(eig=lambda K: True), pytest.raises(SlowConvergenceError) as exc:
            log_perron(PER2_NN, 0.25)
        assert exc.value.diagnostics["s"] == 0.25
        assert exc.value.diagnostics["linalg"] == "Eigenvalues did not converge"

        def fail(a):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(SlowConvergenceError) as exc:
            edge_rate(B2_NO_MINUS2, -1.0)
        assert exc.value.diagnostics["sign"] == -1.0

    @pytest.mark.parametrize("eig", [[np.nan, 0.5], [0.9 + 0.1j, 0.9 - 0.1j, 0.2], [-0.5, -0.7]])
    def test_no_finite_positive_real_root(self, monkeypatch, eig):
        fixed = types.SimpleNamespace(eigvals=lambda a, signature: np.array([eig], dtype=complex))
        monkeypatch.setattr(passage, "_umath_linalg", fixed)
        with pytest.raises(SlowConvergenceError) as exc:
            log_perron(PER2_NN, -0.5)
        assert exc.value.diagnostics["s"] == -0.5

    def test_singular_bordered_solve(self):
        with refusing(solve=lambda M, k: True), pytest.raises(SlowConvergenceError) as exc:
            log_perron(B2_NO_MINUS2, 1.5)
        assert exc.value.diagnostics["s"] == 1.5
        assert exc.value.diagnostics["linalg"] == "Singular matrix"


# class 5 lacks the +2 jump, so at a large tilt its row of the scaled K_s
# underflows to zero while the +2 cycles keep rho positive
B2_HOLE_AT_5 = periodic([JumpLaw(b=2, probs=p) for p in (
    ((-2, 5 / 36), (-1, 19 / 36), (1, 11 / 36), (2, 1 / 36)),
    ((-2, 8 / 19), (-1, 3 / 19), (1, 7 / 38), (2, 9 / 38)),
    ((-2, 17 / 46), (-1, 11 / 46), (1, 2 / 23), (2, 7 / 23)),
    ((-2, 11 / 60), (-1, 1 / 4), (1, 19 / 60), (2, 1 / 4)),
    ((-2, 1 / 32), (-1, 5 / 16), (1, 19 / 32), (2, 1 / 16)),
    ((-2, 4 / 37), (-1, 14 / 37), (1, 19 / 37)),
    ((-2, 2 / 11), (-1, 15 / 44), (1, 1 / 22), (2, 19 / 44)),
    ((-2, 5 / 36), (-1, 19 / 36), (1, 11 / 36), (2, 1 / 36)),
    ((-2, 0.08), (-1, 0.36), (1, 0.16), (2, 0.4)),
    ((-2, 1 / 7), (-1, 4 / 7), (1, 4 / 21), (2, 2 / 21)),
)])


def test_zero_quotient_widens_the_bracket_instead_of_raising():
    # a left-root Newton step past the threshold lands near s = 5491, where
    # the lower Collatz-Wielandt quotient is 0: the bracket's lower end is
    # -inf, and the tilt is reported supercritical, not a math domain error
    pt = log_perron(B2_HOLE_AT_5, 5491.22109262365)
    assert pt.bracket[0] == -math.inf and pt.bracket[1] >= pt.value
    r = estimate_rc(B2_HOLE_AT_5).value + 0.02
    assert lyapunov_bar(B2_HOLE_AT_5, r).status == "supercritical"
    assert lyapunov(B2_HOLE_AT_5, r).status == "supercritical"


class TestLongPeriodRatios:
    """B=2 with 4*B*L > 256: the ratio solve used to recurse without bound."""

    ENV = full_support_b2(33)

    def test_lyapunov_finite_with_certified_residual(self):
        for r in (-0.4, -1.2):
            s = lyapunov(self.ENV, r)
            assert math.isfinite(s.value) and s.converged
            assert u_limit(self.ENV, r).residual <= 1e-12
            assert s.value <= -(math.log(self.ENV.delta) + r) + 1e-9

    def test_tilt_kernel_rows_sum_to_one(self):
        kern = tilt_kernel(self.ENV, -0.4)
        assert kern.row_defect <= 1e-12


class TestLambdaCurve:
    def test_shape_flags(self):
        grid = np.linspace(-1.5, 0.12, 12)
        curve = lambda_curve(BIASED_NN, grid, rc_tol=1e-6)
        assert curve.monotone_ok and curve.convex_ok and curve.bound_ok
        assert curve.rc is not None
        rows = curve.rows()
        assert len(rows) == 12
        assert all(math.isfinite(row[1]) for row in rows)

    def test_supercritical_grid_point(self):
        curve = lambda_curve(BIASED_NN, [-0.5, 0.1, 0.3])
        assert curve.samples[-1].value == math.inf
        assert curve.monotone_ok  # finite part still ordered

    def test_contraction_rate_in_range(self):
        c = contraction_rate(WIDE, -0.5)
        assert 0.0 < c < 1.0


@settings(max_examples=examples(20), deadline=None)
@given(jump_laws(b=1), st.floats(min_value=-2.0, max_value=-0.1))
def test_nn_direction_gap_property(law, r):
    env = homogeneous(law)
    expect = math.log(law.prob(-1) / law.prob(1))
    gap = lyapunov_bar(env, r).value - lyapunov(env, r).value
    assert gap == pytest.approx(expect, abs=1e-8)


@settings(max_examples=examples(30), deadline=None)
@given(environments(max_b=3, max_period=24).filter(lambda e: e.b >= 2), st.floats(-3.0, -0.05))
def test_left_root_is_the_reflection_route(env, r):
    # lambda_bar is s_-, the smaller root of Lambda(s) = -r on env itself;
    # the right-passage rate of the reflection, whose Lambda is Lambda(-s),
    # is its oracle. At r <= -0.05 both rates are at least |r|/B in size and
    # the two roots stay apart, so the routes agree to rounding (within
    # 6e-14 relative over 1 500 draws); near r_c the roots merge, and both
    # routes are only as good as Lambda' there
    bar = reflect(env)
    got, want = lyapunov_bar(env, r), lyapunov(bar, r)
    assert got.converged and want.converged
    assert abs(got.value - want.value) <= 1e-12 * abs(want.value)
    if env.kind == "homogeneous":
        assert got.value == pytest.approx(char_poly_roots(env, r).lambda_left, abs=1e-10)
    beyond = 0.5 - math.log(env.delta)  # r_c <= -log(delta): supercritical
    for sample in (lyapunov_bar(env, beyond), lyapunov(bar, beyond)):
        assert sample.value == math.inf and sample.status == "supercritical"


@settings(max_examples=examples(15), deadline=None)
@given(jump_laws(max_b=2), st.floats(min_value=-1.5, max_value=-0.2))
def test_growth_rate_bounds_property(law, r):
    env = homogeneous(law)
    s = lyapunov(env, r)
    assert s.converged
    assert s.value <= -(math.log(env.delta) + r) + 1e-9
    s2 = lyapunov(env, r - 0.5)
    assert s2.value <= s.value + 1e-10  # nondecreasing in the tilt


@settings(max_examples=examples(10), deadline=None)
@given(jump_laws(max_b=2))
def test_row_sum_identity_property(law):
    env = homogeneous(law)
    ul = u_limit(env, -0.7)
    total = sum(p * math.exp(-0.7) * ul.u_at(0, z) for z, p in law.probs)
    assert total == pytest.approx(1.0, abs=1e-11)
