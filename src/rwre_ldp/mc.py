"""Monte Carlo validation of the analytic layer.

Every check here simulates walks with counter-based streams (one stream per
walker, so any run is reproducible draw by draw) and compares an empirical
statistic against the corresponding analytic value, gating the discrepancy
at a fixed number of standard errors across walkers. Walkers are genuine
replicas, which keeps the z-tests honest: no claim relies on mixing rates
or within-path independence.

Checks cover the untilted law of large numbers (velocity and passage
times, against Lambda'(0) from `tilt.velocity`), the truncated MGF solver
at a negative tilt, a closed-form moment envelope, the drift of the tilted
chain against its stationary prediction, and the telescoping of corrector
increments along simulated paths. Each tilted check builds the one chain
it reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import rng
from .environment import (
    Environment,
    env_to_json,
    offsets,
    require_periodic,
)
from .errors import ConfigError
from .passage import estimate_rc, hit_mgf
from .tilt import TiltedChain, ansatz_measure, corrector, tilted_chain, velocity

GATE_SIGMAS = 3.0


@dataclass(frozen=True, eq=False)
class _Sampler:
    """Inverse-CDF jumps for a vector of walkers, one step at a time.

    A walker of class i with uniform u takes jump k, the number of CDF
    entries cum[i, :-1] below u. The last entry is taken as 1 > u, so
    sampling never falls off the table, also for tilted rows, which sum to
    one only up to the kernel's convergence defect. The step's code is
    i * width + k; `jump[code]` and `next_cls[code]` give the offset and the
    class after the step.
    """

    width: int
    thresholds: tuple[np.ndarray, ...]  # cum[:, k] for k < width - 1
    jump: np.ndarray  # (L * width,) offsets
    next_cls: np.ndarray  # (L * width,) classes mod L

    def codes(self, cls: np.ndarray, u: np.ndarray) -> np.ndarray:
        code = cls * self.width
        for col in self.thresholds:
            code += u > col[cls]
        return code


def _sampler(env: Environment, chain: TiltedChain | None) -> _Sampler:
    """Sampler for the bare environment, or for the tilted chain's rows."""
    rows = env.probs if chain is None else chain.probs
    cum = np.cumsum(rows, axis=1)
    L, width = cum.shape
    offs = offsets(env.b)
    return _Sampler(
        width=width,
        thresholds=tuple(np.ascontiguousarray(cum[:, k]) for k in range(width - 1)),
        jump=np.tile(offs, L),
        next_cls=env.targets.ravel(),
    )


@dataclass(frozen=True, eq=False)
class WalkSample:
    """Endpoint ensemble of independent walkers started at the origin."""

    positions: np.ndarray  # (n_walkers,) int64 after n_steps
    n_steps: int
    seed: int
    pair_counts: np.ndarray | None  # (L, 2B) transition tallies, if requested
    corrector_sums: np.ndarray | None  # (n_walkers,) accumulated increments


# the one size of the ensemble kernels: a kernel call steps a tile of at
# most this many walkers, in blocks of _DRAW_BUDGET // live steps, so its
# temporaries stay under about 1.5 MB whatever the ensemble size; walker j
# reads stream (seed, j) in any tile, so the results are the same for any
# tiling
_DRAW_BUDGET = 1 << 14


def _block_codes(smp, cls, u):
    """Step codes for the rows of u, one step per row, from classes cls;
    returns the codes and the classes after the last row. Only this
    recursion runs step by step."""
    codes = np.empty(u.shape, dtype=np.intp)
    for i, row in enumerate(u):
        codes[i] = code = smp.codes(cls, row)
        cls = smp.next_cls[code]
    return codes, cls


def _walk_tile(smp, seed, n_steps, j_lo, x, csums, fvals, counts):
    """Walkers j_lo..j_lo + x.size - 1 of one tile, stepped into x and, if
    given, csums: views of the ensemble's results. If counts is given, the
    tile's (class, jump) transitions are added into it. A pure function of
    (seed, walker index), so any tiling gives the same results bit for bit.
    Each block of steps is drawn by one `uniform_at` call."""
    n = x.size
    keys = rng.stream_keys(seed, j_lo, j_lo + n)
    cls = np.zeros(n, dtype=np.intp)
    span = _DRAW_BUDGET // n
    for t in range(0, n_steps, span):
        m = min(span, n_steps - t)
        u = rng.uniform_at(rng.block_keys(keys, t, m), 0).reshape(m, n)
        codes, cls = _block_codes(smp, cls, u)
        x += smp.jump[codes].sum(axis=0)
        if counts is not None:
            counts += np.bincount(codes.ravel(), minlength=counts.size)
        if csums is not None:
            # cumsum runs down the step axis one row at a time, so each
            # walker's sum is added in step order, as a step loop would
            inc = fvals[codes]
            inc[0] += csums
            csums[:] = np.cumsum(inc, axis=0, out=inc)[-1]


def walk_ensemble(
    env: Environment,
    seed: int,
    n_steps: int,
    n_walkers: int,
    chain: TiltedChain | None = None,
    count_pairs: bool = False,
    track_corrector: bool = False,
) -> WalkSample:
    """Run independent walkers; walker j consumes stream (seed, j).

    With a tilted `chain` of `env` the walkers follow its kernel instead of
    the bare environment, and may sum its corrector. Pair counts pool (site
    class, jump) transitions over all walkers and steps. The ensemble runs
    tile by tile into its results; the counter-based streams make them the
    same for any tiling.
    """
    require_periodic(env, "a simulation check")
    smp = _sampler(env, chain)
    fvals = corrector(chain).values.ravel() if track_corrector else None
    x = np.zeros(n_walkers, dtype=np.int64)
    csums = np.zeros(n_walkers) if track_corrector else None
    counts = np.zeros(smp.jump.size, dtype=np.int64) if count_pairs else None
    for a in range(0, n_walkers, _DRAW_BUDGET):
        tile = slice(a, a + _DRAW_BUDGET)  # the last tile may be ragged
        _walk_tile(smp, seed, n_steps, a, x[tile], None if csums is None else csums[tile],
                   fvals, counts)
    return WalkSample(
        positions=x, n_steps=n_steps, seed=seed,
        pair_counts=None if counts is None else counts.reshape(-1, smp.width),
        corrector_sums=csums,
    )


def _passage_tile(smp, seed, level, max_steps, j_lo, tau, censored):
    """Walkers j_lo..j_lo + tau.size - 1 of one tile; their passage times go
    into tau, preset to max_steps, and their censoring into censored: views
    of the ensemble's results. Only walkers still short of `level` draw:
    `live` holds their tile indices, with their keys, positions and classes
    alongside. A block of steps is at most ceil((level - x) / B) steps for
    every live walker, so none can arrive before its last step and every
    draw feeds a step."""
    n = tau.size
    live = np.arange(n)
    keys = rng.stream_keys(seed, j_lo, j_lo + n)
    x = np.zeros(n, dtype=np.int64)
    cls = np.zeros(n, dtype=np.intp)
    reach = smp.width // 2  # B, the longest jump
    t = 0
    while t < max_steps and live.size:
        lead = -(-int(level - x.max()) // reach)  # steps the leader needs
        m = min(_DRAW_BUDGET // live.size, max_steps - t, max(1, lead))
        u = rng.uniform_at(rng.block_keys(keys, t, m), 0).reshape(m, live.size)
        codes, cls = _block_codes(smp, cls, u)
        x += smp.jump[codes].sum(axis=0)
        t += m
        arrived = x >= level
        if arrived.any():
            tau[live[arrived]] = t
            running = ~arrived
            live, keys, x, cls = live[running], keys[running], x[running], cls[running]
    censored[live] = True


def passage_ensemble(
    env: Environment,
    seed: int,
    level: int,
    n_walkers: int,
    max_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """First times the walkers reach `level`, with a censoring mask.

    Step t of walker j uses draw t of stream (seed, j), so the ensemble is
    reproducible and the same for any tiling. A walker that has arrived
    draws nothing more; the draws it skips would feed no step, so the cost
    scales with the steps walked, not with n_walkers times the longest
    passage. Censored walkers report max_steps.
    """
    require_periodic(env, "a simulation check")
    smp = _sampler(env, None)
    tau = np.full(n_walkers, max_steps, dtype=np.int64)
    censored = np.zeros(n_walkers, dtype=bool)
    for a in range(0, n_walkers, _DRAW_BUDGET):
        tile = slice(a, a + _DRAW_BUDGET)  # the last tile may be ragged
        _passage_tile(smp, seed, level, max_steps, a, tau[tile], censored[tile])
    return tau, censored


@dataclass(frozen=True, eq=False)
class CheckResult:
    """One empirical-vs-analytic comparison.

    For stochastic checks `z` is (observed - expected) / se over walker
    replicas and the gate is in sigmas. Deterministic checks carry se = 0
    and use `gate` as an absolute ceiling on `observed - expected`.
    """

    name: str
    observed: float
    expected: float
    se: float
    z: float
    gate: float
    passed: bool
    extra: dict = field(default_factory=dict)

    def row(self) -> dict:
        out = {
            "name": self.name,
            "observed": self.observed,
            "expected": self.expected,
            "se": self.se,
            "z": self.z,
            "gate": self.gate,
            "passed": self.passed,
        }
        out.update({k: v for k, v in sorted(self.extra.items())})
        return out


def _mean_se(vals: np.ndarray) -> tuple[float, float]:
    """Mean of the per-walker values and its standard error across
    walkers: the bits of np.mean(vals) and np.std(vals, ddof=1) / sqrt(n),
    by the same operations in the same order, formed in vals' own buffer,
    which this overwrites."""
    n = vals.size
    if n < 2:
        raise ValueError(f"a standard error across walkers needs at least 2 walkers; got {n}")
    mean = np.mean(vals)
    np.subtract(vals, mean, out=vals)
    np.square(vals, out=vals)
    se = math.sqrt(vals.sum() / (n - 1)) / math.sqrt(n)
    return float(mean), se


def _z_result(name, observed, expected, se, gate, **extra) -> CheckResult:
    z = (observed - expected) / se if se > 0 else math.inf * np.sign(observed - expected + 0.0)
    if observed == expected:
        z = 0.0
    return CheckResult(
        name=name, observed=float(observed), expected=float(expected),
        se=float(se), z=float(z), gate=gate, passed=bool(abs(z) <= gate),
        extra=extra,
    )


def _right_velocity(env: Environment) -> float:
    """The walk's velocity Lambda'(0) (`tilt.velocity`), for passage-lln,
    whose walkers must reach levels to the right; on a walk that does not
    move right a ConfigError names the check."""
    v = velocity(env)
    if not v > 0:
        raise ConfigError("mc.checks", f"passage-lln needs a walk that moves right; velocity {v!r}")
    return v


def empirical_velocity_check(
    env: Environment,
    seed: int,
    n_steps: int = 10_000,
    n_walkers: int = 200,
    gate: float = GATE_SIGMAS,
) -> CheckResult:
    """Mean endpoint velocity against Lambda'(0) (`tilt.velocity`), in
    either direction."""
    v = velocity(env)
    sample = walk_ensemble(env, seed, n_steps, n_walkers)
    mean, se = _mean_se(sample.positions / n_steps)
    return _z_result(
        "empirical-velocity", mean, v, se, gate,
        n_steps=n_steps, n_walkers=n_walkers,
    )


def passage_lln_check(
    env: Environment,
    seed: int,
    level: int = 2_000,
    n_walkers: int = 200,
    gate: float = GATE_SIGMAS,
) -> CheckResult:
    """Mean passage time per level against the slope of the growth curve at
    tilt zero, the reciprocal velocity 1/Lambda'(0). Needs a right-transient
    environment (`_right_velocity`)."""
    slope = 1.0 / _right_velocity(env)
    max_steps = int(50 * level * slope)
    tau, censored = passage_ensemble(env, seed, level, n_walkers, max_steps)
    mean, se = _mean_se(tau / level)
    return _z_result(
        "passage-lln", mean, slope, se, gate,
        level=level, n_walkers=n_walkers, censored=int(censored.sum()),
    )


def mgf_match_check(
    env: Environment,
    r: float,
    seed: int,
    level: int = 8,
    n_walkers: int = 50_000,
    gate: float = GATE_SIGMAS,
) -> CheckResult:
    """Empirical mean of exp(r * passage time) against the MGF solve.

    Requires r < 0 so censored walkers contribute at most exp(r max_steps),
    which is reported as the truncation bias bound.
    """
    if r >= 0:
        raise ValueError("the direct MGF estimate needs a negative tilt")
    sol = hit_mgf(env, r, level)
    expected = sol.h_at(0)
    max_steps = max(200, int(-12.0 / r) + 50 * level)
    tau, censored = passage_ensemble(env, seed, level, n_walkers, max_steps)
    vals = tau.astype(float)
    vals *= r
    np.exp(vals, out=vals)
    vals[censored] = 0.0
    mean, se = _mean_se(vals)
    return _z_result(
        "mgf-match", mean, expected, se, gate,
        r=r, level=level, censored=int(censored.sum()),
        truncation_bias_bound=math.exp(r * max_steps),
    )


def moment_envelope_check(
    env: Environment,
    r: float,
    m: int,
    seed: int,
    level: int = 8,
    n_walkers: int = 50_000,
    gate: float = GATE_SIGMAS,
) -> CheckResult:
    """One-sided: E[tau^m exp(r tau)] must stay below its analytic envelope.

    For any s between r and the critical tilt, t^m e^{rt} <= m! (s-r)^{-m}
    e^{st}, so the envelope is m! (s-r)^{-m} times the MGF at s, evaluated
    at the midpoint s of the certified subcritical gap. Passes when the
    empirical mean does not exceed the envelope by more than `gate` standard
    errors.
    """
    if r >= 0:
        raise ValueError("the moment envelope check needs a negative tilt")
    rc_lo = estimate_rc(env, tol=1e-4).bracket[0]
    s = 0.5 * (r + rc_lo)
    envelope = math.factorial(m) * (s - r) ** (-m) * hit_mgf(env, s, level).h_at(0)
    max_steps = max(200, int(-12.0 / r) + 50 * level)
    tau, censored = passage_ensemble(env, seed, level, n_walkers, max_steps)
    t = tau.astype(float)
    vals = t**m
    t *= r
    vals *= np.exp(t, out=t)
    vals[censored] = 0.0
    mean, se = _mean_se(vals)
    slack = (mean - envelope) / se if se > 0 else -math.inf
    return CheckResult(
        name="moment-envelope", observed=mean, expected=envelope, se=se,
        z=float(slack), gate=gate, passed=bool(slack <= gate),
        extra={"r": r, "m": m, "midpoint_tilt": s, "censored": int(censored.sum())},
    )


def tilted_drift_check(
    env: Environment,
    r: float,
    seed: int,
    n_steps: int = 5_000,
    n_walkers: int = 200,
    gate: float = GATE_SIGMAS,
) -> CheckResult:
    """Drift of the simulated tilted chain against the stationary
    prediction; also reports the pooled (class, jump) occupation gap."""
    chain = tilted_chain(env, r)
    sample = walk_ensemble(env, seed, n_steps, n_walkers, chain=chain, count_pairs=True)
    mean, se = _mean_se(sample.positions / n_steps)
    emp = sample.pair_counts / sample.pair_counts.sum()
    tv = 0.5 * float(np.abs(emp - ansatz_measure(chain).weights).sum())
    return _z_result(
        "tilted-drift", mean, chain.drift, se, gate,
        r=r, n_steps=n_steps, n_walkers=n_walkers, pair_tv=tv,
    )


def corrector_path_check(
    env: Environment,
    r: float,
    seed: int,
    n_steps: int = 5_000,
    n_walkers: int = 50,
    tol: float = 1e-9,
) -> CheckResult:
    """Accumulated corrector increments along tilted paths.

    The running sum telescopes to a potential difference, so it must agree
    with the endpoint value exactly and stay within the potential span no
    matter how long the path is. Deterministic gate.
    """
    chain = tilted_chain(env, r)
    cor = corrector(chain)
    sample = walk_ensemble(env, seed, n_steps, n_walkers, chain=chain, track_corrector=True)
    endpoint = cor.potential[sample.positions % env.period] - cor.potential[0]
    telescope_err = float(np.max(np.abs(sample.corrector_sums - endpoint)))
    worst = float(np.max(np.abs(sample.corrector_sums)))
    span = cor.span
    passed = telescope_err <= tol and worst <= span + tol
    return CheckResult(
        name="corrector-path", observed=worst, expected=span, se=0.0,
        z=0.0, gate=tol, passed=bool(passed),
        extra={
            "r": r, "telescope_error": telescope_err,
            "sublinearity_ratio": worst / n_steps,
        },
    )


@dataclass(frozen=True, eq=False)
class McReport:
    """Batch of checks on one environment, JSON-ready."""

    env: Environment
    seed: int
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "environment": env_to_json(self.env),
            "seed": self.seed,
            "algorithm": rng.ALGORITHM,
            "all_passed": self.all_passed,
            "checks": [c.row() for c in self.checks],
        }


STANDARD_CHECKS = (
    "empirical-velocity",
    "passage-lln",
    "mgf-match",
    "moment-envelope",
    "tilted-drift",
    "corrector-path",
)


@dataclass(frozen=True)
class McParams:
    """Sizes, tilt, gate and check names of one `run_standard_checks`
    batch: the one place the mc-verify defaults are written (a config's
    `mc` block overrides them key by key)."""

    n_steps: int = 10_000
    n_walkers: int = 200
    mgf_walkers: int = 50_000
    level: int = 8
    gate: float = GATE_SIGMAS
    r: float = -0.3
    checks: tuple[str, ...] = STANDARD_CHECKS


def run_standard_checks(env: Environment, seed: int, params: McParams = McParams()) -> McReport:
    """Run the checks of params.checks with distinct sub-seeds per check.

    The passage check requires a walk that moves right; ask only for the
    other checks on recurrent or left-transient input.
    """
    n_steps, n_walkers, mgf_walkers = params.n_steps, params.n_walkers, params.mgf_walkers
    level, gate, r = params.level, params.gate, params.r
    out: list[CheckResult] = []
    sub = {name: seed + 1000 * k for k, name in enumerate(STANDARD_CHECKS)}
    for name in params.checks:
        if name == "empirical-velocity":
            out.append(empirical_velocity_check(env, sub[name], n_steps, n_walkers, gate))
        elif name == "passage-lln":
            out.append(passage_lln_check(env, sub[name], max(200, n_steps // 5), n_walkers, gate))
        elif name == "mgf-match":
            out.append(mgf_match_check(env, r, sub[name], level, mgf_walkers, gate))
        elif name == "moment-envelope":
            out.append(moment_envelope_check(env, r, 2, sub[name], level, mgf_walkers, gate))
        elif name == "tilted-drift":
            out.append(tilted_drift_check(env, r, sub[name], n_steps // 2, n_walkers, gate))
        elif name == "corrector-path":
            out.append(corrector_path_check(env, r, sub[name], n_steps // 2))
        else:
            raise ValueError(f"unknown check {name!r}")
    return McReport(env=env, seed=seed, checks=tuple(out))
