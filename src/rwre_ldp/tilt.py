"""Tilted walk kernels built from stabilized harmonic ratios.

Once the ratios u_r(x, z) exist, the recipe

    k(x, z) = pi_x(z) e^r u_r(x, z)

defines a genuine Markov kernel: rows sum to one exactly when the ratios
solve their stationarity system, so the row defect doubles as a convergence
meter and is never papered over by renormalizing. The tilted chain is the
walk conditioned to realize a prescribed passage-time tilt. `tilted_chain`
builds it from one ratio solve: kernel rows, stationary class law, drift
and growth rate. The stationary law comes from GTH state reduction along
the class cycle, which subtracts nothing and holds only a (2B+1)-square
block of the chain at a time; `velocity` runs the same reduction on the
bare rows for Lambda'(0), which the Monte Carlo velocity and passage
checks read without building a chain. Everything level-2 needs takes the
chain as its argument, built once and passed down: the stationary speed and
environment density, the corrector making the tilted increments a
telescoping sum, and the induced pair measure on (environment class,
jump), the paper's Ansatz, as a `level2.PairMeasure`. The raw occupation
profile (`occupation_density`) stays a separate route, as an independent
check on the stationary law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import (
    Environment,
    class_probs,
    offset_index,
    offsets,
    require_periodic,
)
from .errors import SlowConvergenceError
from .level2 import PairMeasure
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


def _kernel_rows(env: Environment, r: float, log_u: np.ndarray) -> np.ndarray:
    """k(i, z) = p_i(z) e^{r + log u(i, z)} on the support, 0 off it."""
    p = class_probs(env)
    on = p > 0
    probs = np.zeros(p.shape)
    probs[on] = p[on] * np.fromiter((math.exp(x) for x in r + log_u[on]), float)
    return probs


def _stationary(probs: np.ndarray, r: float) -> np.ndarray:
    """Stationary law of the class cycle under the kernel rows, by
    Grassmann-Taksar-Heyman (GTH) state reduction (Grassmann, Taksar &
    Heyman 1985).

    Classes L-1, L-2, ..., 1 are eliminated in turn. Each pivot is the
    eliminated class's remaining out-flow, never 1 - p, so the reduction
    only adds and multiplies nonnegative numbers and every component comes
    out to a few ulps (O'Cinneide 1993). On the cycle the classes still
    coupled to class n are the wrap border 0..B-1 and the band n-B..n-1, so
    the reduction works on one dense block over border and band (at most
    2B+1 classes) that slides down the cycle: class m enters it before its
    top neighbour m+B is eliminated, and on the last classes the block just
    drains. O(L B^2) time, O(L B) memory, no L x L matrix. The +-1 entries
    carry at least the ellipticity floor, so every pivot of a tilted chain
    is positive; a negative row entry, or a pivot that is not positive and
    finite (a reducible or broken chain), raises.
    """
    L, width = probs.shape
    b = width // 2
    if not np.all(probs >= 0.0):
        raise SlowConvergenceError(
            f"tilted kernel rows have a negative or NaN entry at r={r}",
            diagnostics={"r": r, "min": float(probs.min())},
        )
    rows = probs.ravel().tolist()
    offs = offsets(b).tolist()
    # the block before class n is eliminated: border 0..b-1, then band lo..n
    lo = max(b, L - 1 - b)
    block = list(range(min(b, L))) + list(range(lo, L))
    W = [[0.0] * len(block) for _ in block]
    for Wa, i in zip(W, block):
        for j, z in enumerate(offs):
            t = (i + z) % L
            if t < b:
                Wa[t] += rows[i * width + j]
            elif t >= lo:
                Wa[b + t - lo] += rows[i * width + j]
    cols = []  # in-flows into n over its pivot, for n = L-1 down to 1
    for n in range(L - 1, 0, -1):
        out = W.pop()
        del out[-1]
        pivot = sum(out)
        if not 0.0 < pivot < math.inf:
            raise SlowConvergenceError(
                f"stationary reduction of the tilted chain hit pivot {pivot} at r={r}",
                diagnostics={"r": r, "class": n, "pivot": pivot},
            )
        inflow = [Wa.pop() / pivot for Wa in W]
        for Wa, f in zip(W, inflow):
            for k, v in enumerate(out):
                Wa[k] += f * v
        cols.extend(inflow)
        m = n - b - 1
        if m >= b:
            # class m enters at the band's foot; its row and the in-flows
            # from its band neighbours m+1..m+b and from the border are
            # still the kernel's own entries
            new = [0.0] * (len(W) + 1)
            into = [0.0] * len(W)
            for j, z in enumerate(offs):
                if z > 0:
                    new[b + z] = rows[m * width + j]
                    # k(m+z, -z); offset -z sits in column width-1-j
                    into[b + z - 1] = rows[(m + z) * width + width - 1 - j]
                    if m - z < b:
                        into[m - z] = rows[(m - z) * width + j]
                elif m + z < b:
                    new[m + z] = rows[m * width + j]
            for Wa, v in zip(W, into):
                Wa.insert(b, v)
            W.insert(b, new)
    # back-substitution in ascending order from x_0 = 1: when n was
    # eliminated the block held border 0..min(n, b)-1 and band max(b, n-b)..n-1
    x = [1.0] * L
    end = len(cols)
    for n in range(1, L):
        lo = max(b, n - b)
        k = min(n, b) + max(0, n - lo)
        end -= k
        x[n] = sum(cols[end + a] * x[a if a < b else lo + a - b] for a in range(k))
    stat = np.array(x)
    total = float(stat.sum())
    if not total < math.inf:
        raise SlowConvergenceError(
            f"stationary law of the tilted chain overflowed at r={r}",
            diagnostics={"r": r, "total": total},
        )
    return stat / total


def tilted_chain(env: Environment, r: float) -> TiltedChain:
    """The tilted chain at r from one ratio solve; periodic environments
    only."""
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


# the name the benchmark's tracer times chain builds under
tilt_kernel = tilted_chain


def velocity(env: Environment) -> float:
    """Lambda'(0), the untilted walk's velocity: the mean jump under the
    stationary law of the bare class chain, by the same GTH reduction."""
    rows = class_probs(env)
    return float(_stationary(rows, 0.0) @ (rows @ offsets(env.b).astype(float)))


def stationary_speed(chain: TiltedChain) -> float:
    """Mean displacement per step of the tilted walk in its stationary
    environment: the reciprocal slope of the growth-rate curve."""
    speed = chain.drift
    if speed <= 0:
        raise SlowConvergenceError(
            f"tilted walk has nonpositive speed {speed} at r={chain.r}",
            diagnostics={"r": chain.r},
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
    stat: np.ndarray
    phi: np.ndarray
    speed: float
    gap: float  # occupation route: TV distance across the last doubling
    floor_ok: bool


def _density(chain: TiltedChain, stat: np.ndarray, speed: float, gap: float) -> InvariantDensity:
    """The density of class law `stat`, read as the tilted walk's at `speed`."""
    env = chain.env
    phi = stat * env.period * (1.0 / speed)
    floor = (env.delta * math.exp(chain.r)) ** (2 * env.b)
    return InvariantDensity(
        env=env,
        r=chain.r,
        stat=stat,
        phi=phi,
        speed=speed,
        gap=gap,
        floor_ok=bool(np.all(phi >= floor - 1e-15)),
    )


def invariant_density(chain: TiltedChain) -> InvariantDensity:
    """Stationary environment density of the tilted walk: the chain's own
    stationary class law (GTH state reduction, O(L B^2))."""
    return _density(chain, chain.stat, chain.drift, 0.0)


def occupation_density(chain: TiltedChain, tol: float = 1e-8) -> InvariantDensity:
    """Class-visit frequencies of the tilted walk from banded resolvent
    solves on growing boxes: g = (I - K^T)^{-1} e_0 counts expected visits
    before the walk escapes the box. An oracle for `invariant_density`:
    scipy loads only here."""
    from scipy.linalg import solve_banded

    env = chain.env
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
                    ab[b + xi - xj, xj] -= chain.probs[cls, j]
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
                speed = float(stat @ (chain.probs @ offs.astype(float)))
                return _density(chain, stat, speed, gap)
        prev = stat
        n *= 2
    raise SlowConvergenceError(
        "occupation profile did not stabilize", diagnostics={"gap": gap, "level": n // 2}
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


def corrector(chain: TiltedChain) -> Corrector:
    """Build the corrector from the tilted chain's log-ratios.

    The per-class potential is the cumulative log-ratio plus linear drift;
    exact periodicity follows because the growth rate is exactly the mean
    log-ratio, making the corrector a closed discrete gradient.
    """
    env = chain.env
    L, lam = env.period, chain.lam
    theta = chain.log_u[:, offset_index(env.b, 1)]
    potential = np.zeros(L)
    for i in range(1, L):
        potential[i] = potential[i - 1] + theta[i - 1] + lam
    values = chain.log_u + offsets(env.b) * lam
    span = float(potential.max() - potential.min()) if L > 1 else 0.0
    return Corrector(env=env, r=chain.r, lam=lam, values=values, potential=potential, span=span)


def ansatz_measure(chain: TiltedChain) -> PairMeasure:
    """Pair measure (class, jump) of the tilted walk in its stationary
    environment: the conjectured level-2 minimizer at the chain's drift."""
    return PairMeasure(env=chain.env, weights=chain.stat[:, None] * chain.probs)
