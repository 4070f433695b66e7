"""Position-level rate function as a Legendre transform of the Perron core.

For a periodic environment the walk is a Markov additive process on its
site classes, and with Lambda(s) = log rho(K_s) the rate is

    I(xi) = sup_s [s xi - Lambda(s)] = s* xi - Lambda(s*),  Lambda'(s*) = xi.

The tilt solving the drift equation is r* = -Lambda(s*), with growth rate
lambda(r*) = -s*. Velocity zero costs exactly the criticality threshold
r_c = -min Lambda. Speeds strictly inside the attainable drift range (the
extreme cycle means of the class jump graph) are interior; its two ends take
the limit of s xi - Lambda(s) as s runs off to infinity, and speeds outside
it are impossible. Leftward velocities go through the reflected environment.
A classical one-step Legendre transform for homogeneous environments rides
along as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.optimize import brentq, minimize_scalar

from .environment import Environment, JumpLaw, reflect
from .errors import SlowConvergenceError
from .passage import (
    RcEstimate,
    drift_limits,
    edge_rate,
    estimate_rc,
    log_perron,
    lyapunov,
)

# threshold brackets are deterministic and shared across every velocity query
_rc_cached = lru_cache(maxsize=256)(estimate_rc)

# speeds this close to an end of the drift range take the end's limit value
_EDGE_TOL = 1e-12


def _require_periodic(env: Environment) -> None:
    if env.kind not in ("homogeneous", "periodic"):
        raise ValueError("rate evaluation requires a homogeneous or periodic environment")


@dataclass(frozen=True)
class RateResult:
    """One rate-function evaluation with its construction trail."""

    xi: float
    value: float
    branch: str  # "interior" | "zero" | "edge" | "outside"
    r_star: float  # tilt -Lambda(s*) whose tilted walk has drift xi
    lam_star: float  # growth rate -s* at that tilt
    slope: float  # dI/dxi = s* = -lam_star
    xi_residual: float  # |Lambda'(s*) - xi|
    mirrored: bool  # solved through the reflected environment


def _slope_root(env: Environment, xi: float) -> float:
    """The tilt s with Lambda'(s) = xi, for xi inside the drift range."""

    def f(s: float) -> float:
        return log_perron(env, s).slope - xi

    f0 = f(0.0)
    if f0 == 0.0:
        return 0.0
    # Lambda' increases; walk outward from 0 until the sign flips
    step = 1.0 if f0 < 0.0 else -1.0
    a, b = 0.0, step
    while (f(b) < 0.0) == (f0 < 0.0):
        a, b = b, 2.0 * b
        if abs(b) > 1e4:
            raise SlowConvergenceError(
                f"drift equation has no bracket within |s| <= 1e4 at xi={xi}",
                diagnostics={"xi": xi},
            )
    lo, hi = min(a, b), max(a, b)
    return float(brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16, maxiter=300))


def rate(env: Environment, xi: float, rc_tol: float = 1e-8) -> RateResult:
    """Evaluate the rate function at one velocity.

    Interior velocities solve Lambda'(s*) = xi by bracketed root finding and
    return s* xi - Lambda(s*), with the drift residual reported. Velocity
    zero returns the midpoint of the threshold bracket, of width <= rc_tol.
    """
    _require_periodic(env)
    if xi < 0:
        inner = rate(reflect(env), -xi, rc_tol=rc_tol)
        return replace(inner, xi=xi, slope=-inner.slope, mirrored=True)
    hi = drift_limits(env)[1]
    if xi > hi + _EDGE_TOL:
        return RateResult(
            xi=xi, value=math.inf, branch="outside", r_star=math.nan, lam_star=math.nan,
            slope=math.nan, xi_residual=0.0, mirrored=False,
        )
    if xi >= hi - _EDGE_TOL:
        # the supremum is the limit s -> +inf: r* -> -inf, lambda(r*) -> -inf
        return RateResult(
            xi=xi, value=edge_rate(env, 1.0), branch="edge", r_star=-math.inf,
            lam_star=-math.inf, slope=math.inf, xi_residual=0.0, mirrored=False,
        )
    if xi < 1e-15:
        rc = _rc_cached(env, tol=rc_tol)
        return RateResult(
            xi=xi, value=rc.value, branch="zero", r_star=rc.value, lam_star=math.nan,
            slope=math.nan, xi_residual=0.0, mirrored=False,
        )
    pt = log_perron(env, _slope_root(env, xi))
    return RateResult(
        xi=xi,
        value=pt.s * xi - pt.value,
        branch="interior",
        r_star=-pt.value,
        lam_star=-pt.s,
        slope=pt.s,
        xi_residual=abs(pt.slope - xi),
        mirrored=False,
    )


@dataclass(frozen=True)
class XiCritical:
    """Critical drift: the slope of Lambda at its minimiser, which is zero
    because Lambda is smooth. `bracket` holds the slopes at the two ends of
    the threshold search's argmin bracket, which enclose it."""

    value: float
    bracket: tuple[float, float]


def xi_critical(env: Environment, rc_est: RcEstimate | None = None) -> XiCritical:
    _require_periodic(env)
    rc = rc_est if rc_est is not None else _rc_cached(env)
    a, b = rc.argmin
    da, db = log_perron(env, a).slope, log_perron(env, b).slope
    # the argmin estimate interpolates Lambda' linearly to zero
    s = a if db == da else a - da * (b - a) / (db - da)
    return XiCritical(value=log_perron(env, s).slope, bracket=(da, db))


@dataclass(frozen=True, eq=False)
class RateCurve:
    env: Environment
    xi_grid: tuple[float, ...]
    results: tuple[RateResult, ...]
    convex_ok: bool
    min_value: float
    argmin: float
    rc: RcEstimate
    rc_reflected: RcEstimate
    xi_critical: XiCritical
    xi_critical_reflected: XiCritical

    def rows(self):
        """(xi, value, r_star, branch, slope) per grid point."""
        return [
            (res.xi, res.value, res.r_star, res.branch, res.slope)
            for res in self.results
        ]


def rate_curve(env: Environment, xi_grid, rc_tol: float = 1e-8) -> RateCurve:
    """Evaluate the rate on a velocity grid, attach the threshold bracket and
    critical drift of both directions, and check convexity along the finite
    part."""
    _require_periodic(env)
    rc = _rc_cached(env, tol=rc_tol)
    rc_bar = _rc_cached(reflect(env), tol=rc_tol)
    results = [rate(env, float(xi), rc_tol=rc_tol) for xi in xi_grid]
    fin = [(res.xi, res.value) for res in results if math.isfinite(res.value)]
    convex = True
    for (x0, v0), (x1, v1), (x2, v2) in zip(fin, fin[1:], fin[2:]):
        s01 = (v1 - v0) / (x1 - x0)
        s12 = (v2 - v1) / (x2 - x1)
        if s12 < s01 - 1e-7:
            convex = False
    vals = [v for _, v in fin]
    k = int(np.argmin(vals)) if vals else 0
    return RateCurve(
        env=env,
        xi_grid=tuple(float(x) for x in xi_grid),
        results=tuple(results),
        convex_ok=convex,
        min_value=vals[k] if vals else math.nan,
        argmin=fin[k][0] if fin else math.nan,
        rc=rc,
        rc_reflected=rc_bar,
        xi_critical=xi_critical(env, rc_est=rc),
        xi_critical_reflected=xi_critical(reflect(env), rc_est=rc_bar),
    )


def cramer_oracle(law: JumpLaw, xi: float) -> float:
    """Independent check for homogeneous environments: the one-step Legendre
    transform sup_s [s xi - log sum_z p(z) e^{s z}]."""
    zs = np.array([z for z, _ in law.probs], dtype=float)
    ps = np.array([p for _, p in law.probs])
    if xi > zs.max() or xi < zs.min():
        return math.inf
    if xi == zs.max():
        return -math.log(ps[np.argmax(zs)])
    if xi == zs.min():
        return -math.log(ps[np.argmin(zs)])

    def neg_dual(s: float) -> float:
        m = np.max(s * zs)
        return -(s * xi - (m + math.log(float(np.exp(s * zs - m) @ ps))))

    res = minimize_scalar(neg_dual, bounds=(-60.0, 60.0), method="bounded",
                          options={"xatol": 1e-14})
    return float(-res.fun)


@dataclass(frozen=True)
class SymmetryGap:
    """I(xi) - I(-xi) against the skew predicted by the log odds of the
    unit jumps; the defect vanishes for nearest-neighbor environments."""

    xi: float
    gap: float
    predicted: float
    defect: float


def symmetry_gap(env: Environment, xi: float, rc_tol: float = 1e-8) -> SymmetryGap:
    _require_periodic(env)
    right = rate(env, abs(xi), rc_tol=rc_tol)
    left = rate(env, -abs(xi), rc_tol=rc_tol)
    log_odds = float(
        np.mean([math.log(law.prob(-1) / law.prob(1)) for law in env.laws])
    )
    gap = right.value - left.value
    predicted = abs(xi) * log_odds
    return SymmetryGap(
        xi=abs(xi), gap=gap, predicted=predicted, defect=abs(gap - predicted)
    )


@dataclass(frozen=True)
class AsymmetryDemo:
    """Direction gap of the growth curve on an r grid; constant for
    nearest-neighbor environments, genuinely r-dependent beyond them."""

    rs: tuple[float, ...]
    gaps: tuple[float, ...]
    variation: float


def asymmetry_demo(env: Environment, rs) -> AsymmetryDemo:
    from .passage import lyapunov_bar

    _require_periodic(env)
    gaps = []
    for r in rs:
        r = float(r)
        gaps.append(lyapunov_bar(env, r).value - lyapunov(env, r).value)
    return AsymmetryDemo(
        rs=tuple(float(r) for r in rs),
        gaps=tuple(gaps),
        variation=max(gaps) - min(gaps),
    )
