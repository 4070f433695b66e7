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

        def perturbed(env, r, start):
            pt = yield from root(env, r, start)
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
        env = periodic([JumpLaw(b=b, probs=law.probs) for law in self.NN.laws], delta=0.5)
        with pytest.raises(SlowConvergenceError) as exc:
            u_limit(env, -1.0)
        assert str(exc.value) == "stabilized ratios violate their ellipticity bounds"
        diag = exc.value.diagnostics
        assert diag["bound"] == -(math.log(0.5) - 1.0)
        assert diag["max_log_ratio"] > diag["bound"] + 1e-8
        with pytest.raises(SlowConvergenceError) as grid_exc:
            lyapunov_grid(env, [-0.1, -1.0, -0.5])
        assert grid_exc.value.diagnostics == diag


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
        assert rc.reflect_gap <= 2e-7

    def test_zero_drift_threshold_is_zero(self):
        rc = estimate_rc(WIDE, tol=1e-6)
        assert abs(rc.value) <= 2e-6

    def test_drifted_wide_threshold(self):
        oracle = drifted_rc_oracle(DRIFT2_LAW)
        rc = estimate_rc(DRIFT2, tol=1e-6)
        assert rc.bracket[0] - 1e-6 <= oracle <= rc.bracket[1] + 1e-6
        assert rc.reflect_gap <= 2e-6
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
        curve = lambda_curve(BIASED_NN, grid, with_rc=True, rc_tol=1e-6)
        assert curve.monotone_ok and curve.convex_ok and curve.bound_ok
        assert curve.rc is not None
        rows = curve.rows()
        assert len(rows) == 12
        assert all(math.isfinite(row[1]) for row in rows)

    def test_supercritical_grid_point(self):
        curve = lambda_curve(BIASED_NN, [-0.5, 0.1, 0.3], with_rc=False)
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
