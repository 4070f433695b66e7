"""Tilted walk kernels built from stabilized harmonic ratios.

Once the ratios u_r(x, z) exist, the recipe

    k(x, z) = pi_x(z) e^r u_r(x, z)

defines a genuine Markov kernel: rows sum to one exactly when the ratios
solve their stationarity system, so the row defect doubles as a convergence
meter and is never papered over by renormalizing. The tilted chain is the
walk conditioned to realize a prescribed passage-time tilt. `tilted_chain`
builds it once per (environment, tilt) from one ratio solve: kernel rows,
stationary class law, drift and growth rate. Everything level-2 needs reads
that object: the stationary environment density, the corrector making the
tilted increments a telescoping sum, and the induced pair measure on
(environment class, jump). The raw occupation profile stays a separate
route, as an independent check on the stationary law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .environment import (
    Environment,
    class_cycle,
    class_probs,
    offset_index,
    offsets,
    require_periodic,
)
from .errors import SlowConvergenceError
from .passage import u_limit


@dataclass(frozen=True, eq=False)
class TiltedChain:
    """The tilted walk at one tilt, built once: its kernel rows, indexed by
    environment class, the stationary class law, the drift and the growth
    rate. Every array is (L, 2B) or (L,) and read-only."""

    env: Environment
    r: float
    probs: np.ndarray  # (L, 2B) kernel rows, aligned with offsets(B)
    row_defect: float  # max |row sum - 1|; inherited from the ratio solve
    floor: float  # (delta e^r)^2, a lower bound for the +-1 entries
    log_u: np.ndarray  # (L, 2B) harmonic log-ratios the rows are built from
    lam: float  # growth rate: minus the mean of log u(., +1)
    stat: np.ndarray  # (L,) stationary class law
    drift: float  # mean jump under stat

    def local_drift(self) -> np.ndarray:
        offs = offsets(self.env.b).astype(float)
        return self.probs @ offs


def _kernel_rows(env: Environment, r: float, log_u: np.ndarray) -> np.ndarray:
    """k(i, z) = p_i(z) e^{r + log u(i, z)} on the support, 0 off it."""
    p = class_probs(env)
    on = p > 0
    probs = np.zeros(p.shape)
    probs[on] = p[on] * np.fromiter((math.exp(x) for x in r + log_u[on]), float)
    return probs


def _stationary(probs: np.ndarray, r: float) -> np.ndarray:
    """Stationary law of the class cycle under the kernel rows.

    Solved as a bordered linear system; the cycle is irreducible because
    +-1 jumps carry at least the ellipticity floor. The dense L x L matrix
    lives only inside this call.
    """
    L = probs.shape[0]
    if L == 1:
        return np.ones(1)
    # eye - T.T from one L x L matrix: the negated cycle plus 1 on the
    # diagonal, the same bits since 1 + (-t) == 1 - t
    A = class_cycle(-probs).T
    A.flat[:: L + 1] += 1.0
    A[-1, :] = 1.0  # replace one redundant balance row with normalization
    rhs = np.zeros(L)
    rhs[-1] = 1.0
    try:
        stat = np.linalg.solve(A, rhs)
    except np.linalg.LinAlgError as e:
        raise SlowConvergenceError(
            f"stationary solve of the tilted chain failed at r={r}",
            diagnostics={"r": r, "linalg": str(e)},
        ) from None
    stat = np.where(np.abs(stat) < 1e-18, 0.0, stat)
    if np.any(stat < -1e-12):
        raise SlowConvergenceError(
            "stationary solve produced negative mass",
            diagnostics={"r": r, "min": float(stat.min())},
        )
    return stat / stat.sum()


@lru_cache(maxsize=256)
def tilted_chain(env: Environment, r: float) -> TiltedChain:
    """The tilted chain at r from one ratio solve; periodic environments
    only. Pure in (env, r), so it is memoised."""
    require_periodic(env, "the tilted kernel")
    log_u = u_limit(env, r).log_u
    probs = _kernel_rows(env, r, log_u)
    stat = _stationary(probs, r)
    for arr in (log_u, probs, stat):
        arr.flags.writeable = False
    return TiltedChain(
        env=env,
        r=r,
        probs=probs,
        row_defect=float(np.max(np.abs(probs.sum(axis=1) - 1.0))),
        floor=(env.delta * math.exp(r)) ** 2,
        log_u=log_u,
        lam=-float(np.mean(log_u[:, offset_index(env.b, 1)])),
        stat=stat,
        drift=float(stat @ (probs @ offsets(env.b).astype(float))),
    )


def tilt_kernel(env: Environment, r: float) -> TiltedChain:
    """Tilted kernel from the stabilized ratios: the memoised chain."""
    return tilted_chain(env, r)


def stationary_speed(env: Environment, r: float) -> float:
    """Mean displacement per step of the tilted walk in its stationary
    environment: the reciprocal slope of the growth-rate curve."""
    speed = tilted_chain(env, r).drift
    if speed <= 0:
        raise SlowConvergenceError(
            f"tilted walk has nonpositive speed {speed}; ratios are stale",
            diagnostics={"r": r},
        )
    return speed


@dataclass(frozen=True, eq=False)
class InvariantDensity:
    """Stationary environment density of the tilted walk.

    `stat` is the probability vector over classes. `phi` is the same object
    on the raw occupation scale: expected visits per class and per level
    crossed, whose class average equals the slope of the growth-rate curve.
    """

    env: Environment
    r: float
    mode: str  # "exact" | "occupation"
    stat: np.ndarray
    phi: np.ndarray
    speed: float
    gap: float  # occupation mode: TV distance across the last doubling
    floor_ok: bool


def _occupation_stat(env: Environment, r: float, tol: float) -> tuple[np.ndarray, float]:
    """Class-visit frequencies of the tilted walk from banded resolvent
    solves on growing boxes: g = (I - K^T)^{-1} e_0 counts expected visits
    before the walk escapes the box. An oracle: scipy loads only here."""
    from scipy.linalg import solve_banded

    kern = tilt_kernel(env, r)
    L = env.period
    b = env.b
    offs = offsets(b)
    prev = None
    gap = math.inf
    n = max(64, 8 * L, 8 * b)
    while n <= 8192:
        m = n
        W = m + n  # sites -m .. n-1
        # A = I - K^T in banded storage: ab[b + i - j, j] = A[i, j], and
        # A[xi, xj] = delta - K[xj -> xi]; jumps leaving the box are absorbed
        ab = np.zeros((2 * b + 1, W))
        ab[b, :] = 1.0
        for xj in range(W):
            cls = (xj - m) % L
            for j, z in enumerate(offs):
                xi = xj + int(z)
                if 0 <= xi < W:
                    ab[b + xi - xj, xj] -= kern.probs[cls, j]
        rhs = np.zeros(W)
        rhs[m] = 1.0  # start the walk at the origin
        g = solve_banded((b, b), ab, rhs)
        # average visits per class over whole periods around the box middle
        span = L * max(2, (4 * b) // L + 1)
        c0 = ((n // 2) // L) * L
        sums = np.zeros(L)
        for x in range(c0, c0 + span):
            sums[x % L] += g[x + m]
        stat = sums / sums.sum()
        if prev is not None:
            gap = 0.5 * float(np.abs(stat - prev).sum())
            if gap <= tol:
                return stat, gap
        prev = stat
        n *= 2
    raise SlowConvergenceError(
        "occupation profile did not stabilize", diagnostics={"gap": gap, "level": n // 2}
    )


def invariant_density(
    env: Environment, r: float, mode: str = "exact", tol: float = 1e-8
) -> InvariantDensity:
    """Stationary environment density of the tilted walk.

    exact: stationary vector of the projected class cycle (linear solve).
    occupation: visit frequencies from resolvent solves on doubling boxes,
    kept as an independent check on the exact route.
    """
    if mode not in ("exact", "occupation"):
        raise ValueError(f"unknown invariant density mode {mode!r}")
    chain = tilted_chain(env, r)
    if mode == "exact":
        stat, gap, speed = chain.stat, 0.0, chain.drift
    else:
        stat, gap = _occupation_stat(env, r, tol)
        speed = float(stat @ chain.local_drift())
    slope = 1.0 / speed
    phi = stat * env.period * slope
    floor = (env.delta * math.exp(r)) ** (2 * env.b)
    floor_ok = bool(np.all(phi >= floor - 1e-15))
    return InvariantDensity(
        env=env,
        r=r,
        mode=mode,
        stat=stat,
        phi=phi,
        speed=speed,
        gap=gap,
        floor_ok=floor_ok,
    )


@dataclass(frozen=True, eq=False)
class Corrector:
    """Exact gradient structure of the tilted log-ratios.

    values[i, j] = log u(i, z_j) + z_j * lam equals the increment of a
    periodic potential, so sums along any walk path telescope and stay
    within the potential's span.
    """

    env: Environment
    r: float
    lam: float
    values: np.ndarray  # (L, 2B)
    potential: np.ndarray  # (L,)
    span: float

    def increment(self, x: int, z: int) -> float:
        return float(self.values[x % self.env.period, offset_index(self.env.b, z)])

    def path_sum(self, start: int, steps) -> float:
        """Telescoped corrector sum along a concrete path."""
        x = start
        total = 0.0
        for z in steps:
            total += self.increment(x, int(z))
            x += int(z)
        return total


def corrector(env: Environment, r: float) -> Corrector:
    """Build the corrector from the tilted chain's log-ratios.

    The per-class potential is the cumulative log-ratio plus linear drift;
    exact periodicity follows because the growth rate is exactly the mean
    log-ratio, making the corrector a closed discrete gradient.
    """
    chain = tilted_chain(env, r)
    L, lam = env.period, chain.lam
    theta = chain.log_u[:, offset_index(env.b, 1)]
    potential = np.zeros(L)
    for i in range(1, L):
        potential[i] = potential[i - 1] + theta[i - 1] + lam
    values = chain.log_u + offsets(env.b) * lam
    span = float(potential.max() - potential.min()) if L > 1 else 0.0
    return Corrector(env=env, r=r, lam=lam, values=values, potential=potential, span=span)


@dataclass(frozen=True, eq=False)
class AnsatzMeasure:
    """Pair measure (class, jump) of the tilted walk in its stationary
    environment: the conjectured level-2 minimizer at its own drift."""

    env: Environment
    r: float
    lam: float
    weights: np.ndarray  # (L, 2B), sums to 1
    stat: np.ndarray  # first marginal over classes
    drift: float

    @property
    def slope(self) -> float:
        return 1.0 / self.drift


def ansatz_measure(env: Environment, r: float) -> AnsatzMeasure:
    chain = tilted_chain(env, r)
    return AnsatzMeasure(
        env=env,
        r=r,
        lam=chain.lam,
        weights=chain.stat[:, None] * chain.probs,
        stat=chain.stat,
        drift=chain.drift,
    )
