"""End-to-end acceptance gate.

Each test covers one gate condition and prints one [PASS]/[FAIL] line
(visible with -rA or -s). Tolerances and time budgets are pinned; the
independent reference routes (polynomial roots, shared-environment duals,
exhaustive path enumeration) never call the pipeline under test.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from rwre_ldp import level2, mc
from rwre_ldp.cli import main as cli_main
from rwre_ldp.environment import (
    Environment,
    JumpLaw,
    homogeneous,
    offsets,
    periodic,
)
from rwre_ldp.passage import brute_mgf, estimate_rc, hit_mgf, lambda_curve, lyapunov, lyapunov_bar
from rwre_ldp.rate import asymmetry_demo, cramer_oracle, rate, rate_curve, xi_critical
from rwre_ldp.rng import stream_key, uniform
from rwre_ldp.tilt import ansatz_measure, corrector, tilt_kernel, tilted_chain

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

SYM = homogeneous(JumpLaw(b=1, probs=((-1, 0.5), (1, 0.5))))
BIASED = homogeneous(JumpLaw(b=1, probs=((-1, 0.3), (1, 0.7))))
PER2 = periodic(
    [
        JumpLaw(b=1, probs=((-1, 0.2), (1, 0.8))),
        JumpLaw(b=1, probs=((-1, 0.6), (1, 0.4))),
    ]
)
PER3 = periodic(
    [
        JumpLaw(b=1, probs=((-1, 0.25), (1, 0.75))),
        JumpLaw(b=1, probs=((-1, 0.55), (1, 0.45))),
        JumpLaw(b=1, probs=((-1, 0.35), (1, 0.65))),
    ]
)
SEVENTHS = homogeneous(
    JumpLaw(b=2, probs=((-2, 1 / 7), (-1, 3 / 7), (1, 1 / 7), (2, 2 / 7)))
)
DRIFT2 = homogeneous(JumpLaw(b=2, probs=((-2, 0.1), (-1, 0.2), (1, 0.3), (2, 0.4))))

CORPUS = [
    ("sym", SYM),
    ("biased", BIASED),
    ("per2", PER2),
    ("per3", PER3),
    ("sevenths", SEVENTHS),
    ("drift2", DRIFT2),
]


def verdict(label: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def seeded_nn(seed: int, length: int) -> Environment:
    """Deterministic random unit-jump environment, right probs in [.15, .85]."""
    u = uniform(stream_key(seed, 0), 0, length)
    return periodic(
        [JumpLaw(b=1, probs=((-1, 1.0 - p), (1, p))) for p in (0.15 + 0.7 * u)]
    )


def seeded_periodic(seed: int, length: int, b: int) -> Environment:
    """Deterministic random environment with jumps up to b, floor 0.025."""
    n = 2 * b
    vals = uniform(stream_key(seed, 1), 0, n * length).reshape(length, n)
    offs = [z for z in range(-b, 0)] + [z for z in range(1, b + 1)]
    laws = []
    for row in vals:
        w = 0.1 + 0.9 * row
        w = w / w.sum()
        laws.append(JumpLaw(b=b, probs=tuple((z, float(p)) for z, p in zip(offs, w))))
    return periodic(laws)


def char_poly_rates(law: JumpLaw, r: float) -> tuple[float, float]:
    """Growth rates from roots of sum_z p(z) x^z = e^{-r}; companion-matrix
    eigenvalues, fully independent of the transfer-operator pipeline."""
    b = law.b
    coeffs = np.zeros(2 * b + 1)
    for z, p in law.probs:
        coeffs[b - z] = p
    coeffs[b] -= math.exp(-r)
    roots = np.roots(coeffs)
    real = sorted(float(x.real) for x in roots if abs(x.imag) < 1e-10 and x.real > 0)
    assert len(real) >= 2, (law, r, real)
    return -math.log(real[-1]), math.log(real[0])


def test_direction_gap_moves_with_tilt_against_polynomial_roots():
    t0 = time.perf_counter()
    rs = (-0.25, -0.5, -1.0, -2.0)
    worst = 0.0
    gaps = []
    for r in rs:
        lam = lyapunov(SEVENTHS, r).value
        lam_bar = lyapunov_bar(SEVENTHS, r).value
        ref_lam, ref_bar = char_poly_rates(SEVENTHS.laws[0], r)
        worst = max(worst, abs(lam - ref_lam), abs(lam_bar - ref_bar))
        gaps.append(lam_bar - lam)
    variation = max(gaps) - min(gaps)
    control = asymmetry_demo(PER2, rs)
    elapsed = time.perf_counter() - t0
    ok = (
        worst <= 1e-6
        and variation > 1e-3
        and control.variation <= 1e-8
        and elapsed <= 10.0
    )
    verdict(
        "direction gap vs polynomial roots",
        ok,
        f"root gap {worst:.1e} (tol 1e-6), spread {variation:.3f} (> 1e-3), "
        f"unit-jump control {control.variation:.1e} (<= 1e-8), {elapsed:.1f}s/10s",
    )


def test_shared_environment_duality_on_homogeneous_corpus():
    t0 = time.perf_counter()
    laws = [
        SYM.laws[0],
        BIASED.laws[0],
        JumpLaw(b=1, probs=((-1, 0.7), (1, 0.3))),
        SEVENTHS.laws[0],
        JumpLaw(b=2, probs=((-2, 0.1), (-1, 0.2), (1, 0.5), (2, 0.2))),
    ]
    worst = 0.0
    for law in laws:
        env = homogeneous(law)
        for xi in np.linspace(0.05, 0.95, 21) * law.b:
            got = rate(env, float(xi)).value
            ref = cramer_oracle(law, float(xi))
            worst = max(worst, abs(got - ref))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 60.0
    verdict(
        "homogeneous duality corpus",
        ok,
        f"{len(laws)} laws x 21 speeds, worst gap {worst:.1e} (tol 1e-6), "
        f"{elapsed:.1f}s/60s",
    )


def test_unit_jump_skew_identity_on_seeded_environments():
    t0 = time.perf_counter()
    worst_defect = 0.0
    worst_var = 0.0
    for seed, length in ((101, 2), (202, 3), (303, 5)):
        env = seeded_nn(seed, length)
        log_rho = float(
            np.mean([math.log(law.prob(-1) / law.prob(1)) for law in env.laws])
        )
        for xi in np.linspace(0.05, 0.95, 11):
            gap = rate(env, float(xi)).value - rate(env, -float(xi)).value
            worst_defect = max(worst_defect, abs(gap - xi * log_rho))
        demo = asymmetry_demo(env, (-0.2, -0.5, -0.9, -1.4, -2.0))
        worst_var = max(worst_var, demo.variation)
    elapsed = time.perf_counter() - t0
    ok = worst_defect <= 1e-7 and worst_var <= 1e-8 and elapsed <= 60.0
    verdict(
        "unit-jump skew identity",
        ok,
        f"3 seeded environments x 11 speeds, defect {worst_defect:.1e} (tol 1e-7), "
        f"direction gap drift {worst_var:.1e} (tol 1e-8), {elapsed:.1f}s/60s",
    )


LEVEL2_CASES = [(11, 2, 2), (22, 3, 2), (33, 4, 1)]
LEVEL2_TILTS = (-0.4, -0.9, -1.6)


def test_constrained_minimizer_recovers_tilted_pair_measure():
    t0 = time.perf_counter()
    worst_val = 0.0
    worst_tv = 0.0
    for seed, length, b in LEVEL2_CASES:
        env = seeded_periodic(seed, length, b)
        for r in LEVEL2_TILTS:
            chain = tilted_chain(env, r)
            ref = ansatz_measure(chain)
            res = level2.minimize_entropy(env, chain.drift, tol=1e-10)
            assert res.converged
            worst_val = max(worst_val, abs(res.value - level2.entropy(ref)))
            worst_tv = max(
                worst_tv, 0.5 * float(np.abs(res.measure.weights - ref.weights).sum())
            )
    elapsed = time.perf_counter() - t0
    ok = worst_val <= 1e-5 and worst_tv <= 1e-4 and elapsed <= 300.0
    verdict(
        "pair-measure minimizer vs tilted chain",
        ok,
        f"9 cases, value gap {worst_val:.1e} (tol 1e-5), TV {worst_tv:.1e} "
        f"(tol 1e-4), {elapsed:.1f}s/300s",
    )


def test_entropy_of_tilted_measure_equals_tilt_cost():
    worst = 0.0
    cases = [(seeded_periodic(s, l, b), r) for s, l, b in LEVEL2_CASES for r in LEVEL2_TILTS]
    cases += [(env, r) for _, env in CORPUS for r in (-0.3, -1.0)]
    for env, r in cases:
        chain = tilted_chain(env, r)
        val = level2.entropy(ansatz_measure(chain))
        worst = max(worst, abs(val - (r - chain.drift * chain.lam)))
    ok = worst <= 1e-6
    verdict(
        "entropy identity",
        ok,
        f"{len(cases)} (environment, tilt) pairs, residual {worst:.1e} (tol 1e-6)",
    )


def test_structural_invariants_across_corpus():
    t0 = time.perf_counter()
    rs = (-0.25, -0.75, -1.5)
    for name, env in CORPUS:
        L, b = env.period, env.b
        offs = offsets(b)
        jm1 = int(np.where(offs == -1)[0][0])
        jp1 = int(np.where(offs == 1)[0][0])
        for r in rs:
            kern = tilt_kernel(env, r)
            assert kern.row_defect <= 1e-12, (name, r, "row sums")
            assert float(kern.probs[:, [jm1, jp1]].min()) >= kern.floor - 1e-15, (
                name, r, "ellipticity floor")
            cor = corrector(kern)
            grad_err = max(
                abs(cor.values[i, j] - (cor.potential[(i + int(z)) % L] - cor.potential[i]))
                for i in range(L)
                for j, z in enumerate(offs)
            )
            assert grad_err <= 1e-11, (name, r, "corrector gradient")
            pi = kern.stat
            step = np.zeros((L, L))
            for i in range(L):
                for j, z in enumerate(offs):
                    step[i, (i + int(z)) % L] += kern.probs[i, j]
            assert float(np.max(np.abs(pi @ step - pi))) <= 1e-12, (
                name, r, "invariance residual")
        curve = lambda_curve(env, np.linspace(-2.0, -0.1, 8), tol=1e-10)
        assert curve.monotone_ok and curve.convex_ok and curve.bound_ok, (
            name, "growth-rate curve shape")
        rcurve = rate_curve(env, np.linspace(0.1, 0.9, 5) * b)
        assert rcurve.convex_ok, (name, "cost curve convexity")
        rc = estimate_rc(env, tol=1e-7)
        assert rc.reflect_gap <= 2e-7, (name, "left/right threshold agreement")
        zero = rate(env, 0.0)
        assert rc.bracket[0] - 1e-7 <= zero.value <= rc.bracket[1] + 1e-7, (
            name, "zero-speed cost inside threshold bracket")
        if env.kind == "homogeneous":
            assert abs(zero.value - cramer_oracle(env.laws[0], 0.0)) <= 1e-6, (
                name, "zero-speed cost vs dual")
        xc = xi_critical(env, rc_est=rc)
        assert xc.bracket[0] <= 0.0 <= xc.bracket[1], (name, "critical speed bracket")
        assert abs(xc.value) <= b, (name, "critical speed bounds")
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 300.0
    verdict(
        "structural invariants",
        ok,
        f"{len(CORPUS)} environments x {len(rs)} tilts, all suites green, "
        f"{elapsed:.1f}s/300s",
    )


def test_simulation_gates_at_committed_sizes():
    t0 = time.perf_counter()
    failed = []
    for env, seed, name in ((PER2, 20260815, "per2"), (DRIFT2, 31415926, "drift2")):
        rep = mc.run_standard_checks(
            env, seed, r=-0.3, n_steps=10_000, n_walkers=200,
            mgf_walkers=50_000, level=8,
        )
        failed += [f"{name}:{c.name}" for c in rep.checks if not c.passed]
        telescope = next(c for c in rep.checks if c.name == "corrector-path")
        assert telescope.se == 0.0 and telescope.passed, (name, "path telescoping")
    elapsed = time.perf_counter() - t0
    ok = not failed and elapsed <= 600.0
    verdict(
        "simulation gates",
        ok,
        f"2 environments x {len(mc.STANDARD_CHECKS)} checks at 3 sigma, "
        f"failures {failed or 'none'}, {elapsed:.1f}s/600s",
    )


def test_truncated_solver_matches_exhaustive_path_sums():
    t0 = time.perf_counter()
    worst_ratio = 0.0
    for k in range(10):
        u = float(uniform(stream_key(7000 + k, 3), 0, 1)[0])
        r = -0.5 - 1.5 * u
        env = seeded_periodic(9000 + k, 1 + (k % 3), 1 + (k % 2))
        sol = hit_mgf(env, r, 1)
        brute = brute_mgf(env, r, 1, max_len=48)
        budget = brute.tail_bound + sol.err_bound + 1e-10
        diff = abs(sol.h_at(0) - brute.value)
        assert diff <= budget, (k, diff, budget)
        worst_ratio = max(worst_ratio, diff / budget)
    elapsed = time.perf_counter() - t0
    ok = elapsed <= 60.0
    verdict(
        "solver vs exhaustive paths",
        ok,
        f"10 randomized cases, worst error at {worst_ratio:.3f} of budget, "
        f"{elapsed:.1f}s/60s",
    )


def test_committed_configs_are_byte_deterministic(tmp_path):
    t0 = time.perf_counter()
    configs = sorted(CONFIG_DIR.glob("*.json"))
    assert configs, "no committed configs found"
    mismatched = []
    for cfg in configs:
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{cfg.stem}-{tag}"
            code = cli_main(["run", str(cfg), "--out", str(out)])
            assert code == 0, (cfg.name, code)
            outs.append(out)
        for artifact in sorted(p.name for p in outs[0].iterdir()):
            if (outs[0] / artifact).read_bytes() != (outs[1] / artifact).read_bytes():
                mismatched.append(f"{cfg.name}/{artifact}")
    elapsed = time.perf_counter() - t0
    ok = not mismatched
    verdict(
        "byte determinism",
        ok,
        f"{len(configs)} configs run twice, mismatches {mismatched or 'none'}, "
        f"{elapsed:.1f}s",
    )
