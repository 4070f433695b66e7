"""Pair empirical measures and their entropy functional.

A pair measure assigns weight to (environment class, jump) pairs. The
admissible ones are shift-stationary: the class marginal seen before a jump
must match the one seen after. On that affine set the relative entropy

    J(w) = sum_{i,z} w(i,z) log( w(i,z) / (m1(i) pi_i(z)) )

is convex, and its constrained minimum over measures with a prescribed mean
jump is the positional rate function evaluated at that drift. The minimizer
here is projected gradient descent with Barzilai-Borwein steps, backtracking,
and a Dykstra projection onto (affine constraints) ∩ (floor box). The tilted
pair measure is the conjectured minimizer; the optimizer never assumes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import (
    Environment,
    offset_index,
    offsets,
    require_periodic,
)
from .errors import InfeasibleDriftError, SlowConvergenceError
from .passage import drift_limits

FLOOR = 1e-12

# Dykstra sweeps per projection. A projection that ends them farther from
# the constraints than the floor forces (`reach` in minimize_entropy) is
# never accepted as an iterate: the line search treats it as a failed trial,
# and the last-resort step raises.
_DYKSTRA_ITERS = 200

# projected-gradient steps before minimize_entropy gives up
_MAX_ITER = 20_000


@dataclass(frozen=True, eq=False)
class PairMeasure:
    """Probability weights on (class, jump) pairs, aligned with offsets(B)."""

    env: Environment
    weights: np.ndarray  # (L, 2B)

    def __post_init__(self):
        require_periodic(self.env, "a pair measure")
        L, w = self.env.period, self.weights
        if w.shape != (L, 2 * self.env.b):
            raise ValueError(f"weights shape {w.shape} does not match the environment")

    def m1(self) -> np.ndarray:
        """Class marginal before the jump."""
        return self.weights.sum(axis=1)

    def m2(self) -> np.ndarray:
        """Class marginal after the jump: mass arriving at each class,
        added in ascending source class."""
        L, w = self.env.period, self.weights
        return np.bincount(self.env.targets.ravel(), weights=w.ravel(), minlength=L)

    def drift(self) -> float:
        offs = offsets(self.env.b).astype(float)
        return float((self.weights * offs[None, :]).sum())

    def shift_defect(self) -> float:
        return float(np.max(np.abs(self.m1() - self.m2())))

    def total(self) -> float:
        return float(self.weights.sum())


def entropy(mu: PairMeasure) -> float:
    """Relative entropy of the pair measure against m1 (x) pi.

    Returns +inf when mass sits on jumps the environment never makes.
    """
    total = 0.0
    # on Python floats, in row-major order: math on numpy scalars would cost
    # more than the terms themselves
    for w_i, m1_i, p_i in zip(mu.weights.tolist(), mu.m1().tolist(), mu.env.probs.tolist()):
        for wij, pij in zip(w_i, p_i):
            if wij <= 0.0:
                continue
            ref = m1_i * pij
            if ref <= 0.0:
                return math.inf
            total += wij * math.log(wij / ref)
    return total


def entropy_gradient(mu: PairMeasure) -> np.ndarray:
    """Elementwise log(w / (m1 pi)); the m1-dependence cancels in the
    gradient because the per-class weights sum inside their own marginal."""
    w = mu.weights
    m1 = mu.m1()
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.log(w / (m1[:, None] * mu.env.probs))
    g = np.where(np.isfinite(g), g, 0.0)
    return g


def _constraints(env: Environment, xi: float, mask: np.ndarray):
    """Equality rows over the supported coordinates: total mass, shift
    stationarity (one redundant row dropped), prescribed drift."""
    L = env.period
    offs = offsets(env.b)
    idx = np.argwhere(mask)
    d = len(idx)
    col = {(int(i), int(j)): k for k, (i, j) in enumerate(idx)}
    rows = [np.ones(d)]
    rhs = [1.0]
    for i in range(L - 1):
        row = np.zeros(d)
        for (ii, jj), k in col.items():
            z = int(offs[jj])
            if ii == i:
                row[k] += 1.0
            if (ii + z) % L == i:
                row[k] -= 1.0
        rows.append(row)
        rhs.append(0.0)
    drow = np.zeros(d)
    for (ii, jj), k in col.items():
        drow[k] = float(offs[jj])
    rows.append(drow)
    rhs.append(xi)
    return np.array(rows), np.array(rhs), idx


def drift_range(env: Environment) -> tuple[float, float]:
    """Extreme mean jumps over shift-stationary pair measures, by linear
    programming over the supported polytope.

    An independent oracle for passage.drift_limits (Karp's extreme cycle
    means), which the minimizer uses; scipy.optimize loads only when an
    oracle runs, this one or `rate.cramer_oracle`.
    """
    from scipy.optimize import linprog

    require_periodic(env, "a pair measure")
    mask = env.probs > 0
    A, rhs, idx = _constraints(env, 0.0, mask)
    # drop the drift row; keep mass + stationarity
    A_eq, b_eq = A[:-1], rhs[:-1]
    c = A[-1]
    out = []
    for sign in (1.0, -1.0):
        res = linprog(sign * c, A_eq=A_eq, b_eq=b_eq, bounds=(0, None), method="highs")
        if not res.success:
            raise SlowConvergenceError(
                "drift range solve failed", diagnostics={"message": res.message}
            )
        out.append(sign * res.fun)
    lo, hi = out
    return float(lo), float(hi)


@dataclass(frozen=True, eq=False)
class Level2Result:
    """Outcome of the constrained entropy minimization."""

    env: Environment
    xi: float
    measure: PairMeasure
    value: float
    grad_map_norm: float  # norm of the projected-gradient fixed-point residual
    constraint_residual: float
    iterations: int
    converged: bool
    floor: float


def minimize_entropy(
    env: Environment,
    xi: float,
    w0: PairMeasure | None = None,
    tol: float = 1e-10,
) -> Level2Result:
    """Minimize the pair entropy at fixed drift xi.

    Projected gradient with BB steps; the projection is Dykstra's alternation
    between the affine constraint set and the floor box, so iterates stay
    feasible to machine precision. Infeasible drifts are rejected up front
    with the attainable range (Karp's extreme cycle means) in the error.
    """
    require_periodic(env, "a pair measure")
    mask = env.probs > 0
    lo, hi = drift_limits(env)
    margin = 1e-12
    if not (lo - margin <= xi <= hi + margin):
        raise InfeasibleDriftError(
            f"drift {xi} outside the attainable range [{lo}, {hi}]",
            xi_min=lo,
            xi_max=hi,
        )
    A, rhs, idx = _constraints(env, xi, mask)
    AAt_pinv = np.linalg.pinv(A @ A.T)
    # At an end of the drift range some weights must vanish, and the floor
    # box misses the constraints by up to FLOOR per coordinate, times the
    # longest jump: no projection gets closer than that, so that is how
    # close one must get.
    reach = FLOOR * env.b * len(idx)

    def proj_affine(v: np.ndarray) -> np.ndarray:
        return v - A.T @ (AAt_pinv @ (A @ v - rhs))

    def proj(v: np.ndarray) -> tuple[np.ndarray, bool]:
        """Dykstra's projection of v, and whether it lands on the
        constraints: within 1e-14 in at most _DYKSTRA_ITERS sweeps, or
        within `reach` once they are spent."""
        x = v.copy()
        p = np.zeros_like(v)
        q = np.zeros_like(v)
        for _ in range(_DYKSTRA_ITERS):
            xp = x + p
            y = proj_affine(xp)
            p = xp - y
            yq = y + q
            x = np.maximum(yq, FLOOR)
            q = yq - x
            if np.abs(A @ x - rhs).max() < 1e-14 and x.min() >= FLOOR - 1e-15:
                return x, True
        return x, float(np.abs(A @ x - rhs).max()) <= reach

    L = env.period
    rows, cols = idx.T  # the supported coordinates, in the order of v

    def unflatten(v: np.ndarray) -> np.ndarray:
        w = np.zeros((L, 2 * env.b))
        w[rows, cols] = v
        return w

    def fval(v: np.ndarray) -> float:
        return entropy(PairMeasure(env=env, weights=unflatten(v)))

    def gval(v: np.ndarray) -> np.ndarray:
        return entropy_gradient(PairMeasure(env=env, weights=unflatten(v)))[rows, cols]

    if w0 is not None:
        v = w0.weights[rows, cols]
    else:
        # untilted product measure, then made feasible
        v = env.probs[rows, cols] / L
    v = proj(v)[0]
    f = fval(v)
    g = gval(v)
    step = 1.0
    v_prev = None
    g_prev = None
    it = 0
    gmap = math.inf
    # v and g are rebound, never written in place, so the previous pair
    # needs no copy
    for it in range(1, _MAX_ITER + 1):
        if v_prev is not None:
            dv = v - v_prev
            dg = g - g_prev
            denom = float(dv @ dg)
            step = float(dv @ dv) / denom if denom > 1e-300 else 1.0
            step = float(min(max(step, 1e-8), 1e4))
        v_prev, g_prev = v, g
        t = step
        v_new, f_new = v, f
        for _ in range(60):
            cand, feasible = proj(v - t * g)
            if feasible:
                fc = fval(cand)
                if fc <= f - 1e-4 * float(g @ (v - cand)) + 1e-16:
                    v_new, f_new = cand, fc
                    break
            t *= 0.5
        else:
            v_new, feasible = proj(v - t * g)
            if not feasible:
                raise SlowConvergenceError(
                    "entropy minimization: the projection of the last-resort step "
                    f"missed the constraints after {_DYKSTRA_ITERS} Dykstra sweeps",
                    diagnostics={
                        "iterations": it,
                        "step": t,
                        "constraint_residual": float(np.max(np.abs(A @ v_new - rhs))),
                        "reach": reach,
                    },
                )
            f_new = fval(v_new)
        v, f = v_new, f_new
        g = gval(v)  # the next iteration's gradient too
        gmap = float(np.linalg.norm(proj(v - g)[0] - v))
        if gmap <= tol:
            break
    resid = float(np.max(np.abs(A @ v - rhs)))
    measure = PairMeasure(env=env, weights=unflatten(v))
    return Level2Result(
        env=env,
        xi=xi,
        measure=measure,
        value=f,
        grad_map_norm=gmap,
        constraint_residual=resid,
        iterations=it,
        converged=gmap <= tol and resid <= reach,
        floor=FLOOR,
    )


def empirical_pair_measure(env: Environment, positions: np.ndarray) -> PairMeasure:
    """Pair measure of an observed walk path: visit frequencies of
    (class at the current site, jump taken)."""
    require_periodic(env, "a pair measure")
    x = np.asarray(positions, dtype=np.int64)
    if x.ndim != 1 or len(x) < 2:
        raise ValueError("need a path of at least two positions")
    steps = np.diff(x)
    L, b = env.period, env.b
    bad = (steps == 0) | (np.abs(steps) > b)
    if bad.any():
        offset_index(b, int(steps[bad.argmax()]))  # raises for the first bad jump
    # cell (class, column of the jump) of each step, counted in one pass
    cells = (x[:-1] % L) * (2 * b) + steps + b - (steps > 0)
    w = np.bincount(cells, minlength=L * 2 * b).reshape(L, 2 * b).astype(float)
    return PairMeasure(env=env, weights=w / w.sum())
