"""Position-level rate function as a Legendre transform of the Perron core.

For a periodic environment the walk is a Markov additive process on its
site classes, and with Lambda(s) = log rho(K_s) the rate is

    I(xi) = sup_s [s xi - Lambda(s)] = s* xi - Lambda(s*),  Lambda'(s*) = xi.

The tilt solving the drift equation is r* = -Lambda(s*), with growth rate
lambda(r*) = -s*. Speeds strictly inside the attainable drift range (the
extreme cycle means of the class jump graph) are interior, zero among them:
its drift root is the minimiser of Lambda, so it costs exactly the
criticality threshold r_c = -min Lambda. The two ends of the range take the
limit of s xi - Lambda(s) as s runs off to +inf or -inf, and speeds outside
it are impossible. Speeds of either sign are solved on the environment's own
Lambda, so I(xi) and I(-xi) come from one core, as the skew identity of
`symmetry_gaps` reads them; so do the two passage growth rates whose gap
`asymmetry_demo` follows, lambda(r) = -s_+ and lambda_bar(r) = s_- for the
roots s_- < s_+ of Lambda(s) = -r. The drift equation is solved by
`passage._slope_root_steps`, a port of Brent's bracketed root finder (Brent
1973, as in scipy's brentq), so the analytic tasks never load
scipy.optimize; the same search, stopped at a tolerance, brackets r_c in
`passage.estimate_rc`. It is a step generator, so
that each speed of a grid runs as a search of `passage.lockstep`
(`rate_grid`). A classical one-step Legendre transform for homogeneous
environments rides along as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .environment import Environment, JumpLaw, require_periodic
from .errors import RwreError
from .passage import (
    PerronPoint,
    RcEstimate,
    _caught,
    _edge_rate,
    _lyapunov_samples,
    _max_cycle_mean,
    _raise_first,
    _slope_root_steps,
    estimate_rc,
    lockstep,
    log_perron,
)

# threshold brackets are deterministic, shared by rate_curve and xi_critical
_rc_cached = lru_cache(maxsize=256)(estimate_rc)

# speeds this close to an end of the drift range take the end's limit value
_EDGE_TOL = 1e-12


@dataclass(frozen=True)
class RateResult:
    """One rate-function evaluation with its construction trail."""

    xi: float
    value: float
    branch: str  # "interior" | "edge" | "outside"
    r_star: float  # tilt -Lambda(s*) whose tilted walk has drift xi
    slope: float  # dI/dxi = s*
    xi_residual: float  # |Lambda'(s*) - xi|


def _limit_rate(env: Environment, xi: float, cycles: dict) -> RateResult | None:
    """The rate at a speed outside the drift range or at an end of it, from
    each sign's `_max_cycle_mean` in cycles; None for interior speeds."""
    lo, hi = -cycles[-1.0][0], cycles[1.0][0]
    if xi > hi + _EDGE_TOL or xi < lo - _EDGE_TOL:
        return RateResult(
            xi=xi, value=math.inf, branch="outside", r_star=math.nan, slope=math.nan,
            xi_residual=0.0,
        )
    for sign, end in ((1.0, hi), (-1.0, lo)):
        if sign * xi >= sign * end - _EDGE_TOL:
            # the supremum is the limit s -> sign*inf, where r* -> -inf
            return RateResult(
                xi=xi, value=_edge_rate(env, sign, *cycles[sign]), branch="edge",
                r_star=-math.inf, slope=sign * math.inf, xi_residual=0.0,
            )
    return None


def _interior(xi: float, pt: PerronPoint) -> RateResult:
    return RateResult(
        xi=xi,
        value=pt.s * xi - pt.value,
        branch="interior",
        r_star=0.0 - pt.value,  # a zero threshold prints as 0, not -0
        slope=pt.s,
        xi_residual=abs(pt.slope - xi),
    )


def rate_grid(env: Environment, xi_grid) -> list[RateResult]:
    """Evaluate the rate function on a velocity grid, the interior points
    in lockstep.

    Each interior speed walks out its own bracket and runs its own Brent
    iteration on Lambda'(s) = xi (`_slope_root_steps`) as a job of
    `passage.lockstep`, on the environment itself whatever the speed's
    sign; one cycle-mean solve per sign gives the range and the edge rates.
    A point's result is a function of (env, xi) alone, the same to the last
    bit as a lone `rate(env, xi)`. If points fail, the error of the first
    failing point in grid order is raised, as a loop over the grid would.
    """
    require_periodic(env, "rate evaluation")
    xis = [float(xi) + 0.0 for xi in xi_grid]  # -0.0 is speed 0
    cycles = {sign: _max_cycle_mean(env, sign) for sign in (-1.0, 1.0)}
    results = [_caught(_limit_rate, env, xi, cycles) for xi in xis]
    interior = [i for i, res in enumerate(results) if res is None]
    roots = lockstep([(env, _slope_root_steps(xis[i])) for i in interior])
    for i, found in zip(interior, roots):
        results[i] = found if isinstance(found, RwreError) else _interior(xis[i], found.point)
    return _raise_first(results)


def rate(env: Environment, xi: float) -> RateResult:
    """Evaluate the rate function at one velocity: `rate_grid` at one point.

    Interior velocities solve Lambda'(s*) = xi by bracketed root finding and
    return s* xi - Lambda(s*), with the drift residual reported; at
    velocity zero that is the threshold -min Lambda.
    """
    return rate_grid(env, (xi,))[0]


@dataclass(frozen=True)
class XiCritical:
    """Critical drift: the slope of Lambda at its minimiser, which is zero
    because Lambda is smooth. `bracket` holds the slopes at the two ends of
    the threshold search's argmin bracket, which enclose it."""

    value: float
    bracket: tuple[float, float]


def xi_critical(env: Environment, rc_est: RcEstimate | None = None) -> XiCritical:
    require_periodic(env, "rate evaluation")
    rc = rc_est if rc_est is not None else _rc_cached(env)
    (a, b), (da, db) = rc.argmin, rc.argmin_slopes
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
    xi_critical: XiCritical

    def rows(self):
        """(xi, value, r_star, branch, slope) per grid point."""
        return [
            (res.xi, res.value, res.r_star, res.branch, res.slope)
            for res in self.results
        ]


def rate_curve(env: Environment, xi_grid, rc_tol: float = 1e-8) -> RateCurve:
    """Evaluate the rate on a velocity grid, attach the threshold bracket and
    critical drift, and check convexity along the finite part. The reflected
    environment has Lambda(-s) for its Lambda: the same threshold, and the
    critical drift mirrored, so neither is written twice."""
    # the grid before the r_c search, which runs the same drift-root search:
    # a fault both meet is reported at the grid point that met it
    results = rate_grid(env, xi_grid)
    rc = _rc_cached(env, tol=rc_tol)
    xc = xi_critical(env, rc_est=rc)
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
        xi_critical=xc,
    )


def cramer_oracle(law: JumpLaw, xi: float) -> float:
    """Independent check for homogeneous environments: the one-step Legendre
    transform sup_s [s xi - log sum_z p(z) e^{s z}]."""
    from scipy.optimize import minimize_scalar  # an oracle, kept off the import path

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
    """I(xi) - I(-xi) against the skew predicted by the mean log odds of
    the unit jumps; the defect vanishes for nearest-neighbor environments."""

    xi: float
    rate_right: float  # I(xi)
    rate_left: float  # I(-xi)
    log_odds: float  # mean over classes of log(p(-1) / p(+1))
    gap: float
    predicted: float
    defect: float


def symmetry_gaps(env: Environment, xis) -> list[SymmetryGap]:
    """I(|xi|) - I(-|xi|) against the predicted skew at every speed of xis,
    with all the rates solved as one rate grid."""
    require_periodic(env, "rate evaluation")
    speeds = [abs(float(xi)) for xi in xis]
    # right and left speed of each point in turn: the order a loop over the
    # points would meet them, and so the error it would raise first
    rates = rate_grid(env, [v for xi in speeds for v in (xi, -xi)])
    log_odds = float(
        np.mean([math.log(law.prob(-1) / law.prob(1)) for law in env.laws])
    )
    out = []
    for xi, right, left in zip(speeds, rates[::2], rates[1::2]):
        gap = right.value - left.value
        predicted = xi * log_odds
        out.append(SymmetryGap(
            xi=xi, rate_right=right.value, rate_left=left.value, log_odds=log_odds,
            gap=gap, predicted=predicted, defect=abs(gap - predicted),
        ))
    return out


@dataclass(frozen=True)
class AsymmetryDemo:
    """Direction gap of the growth curve on an r grid; constant for
    nearest-neighbor environments, genuinely r-dependent beyond them."""

    rs: tuple[float, ...]
    lambdas: tuple[float, ...]  # right-passage growth rate lambda(r)
    lambdas_bar: tuple[float, ...]  # left-passage growth rate lambda_bar(r)
    gaps: tuple[float, ...]  # lambda_bar(r) - lambda(r)
    variation: float  # spread of the finite gaps; nan with fewer than two


def asymmetry_demo(env: Environment, rs) -> AsymmetryDemo:
    """lambda and lambda_bar at each tilt of rs, both from one
    `passage._lyapunov_samples` call, so an error is raised at the first
    (tilt, direction) in the order lambda(r), lambda_bar(r), r by r, as a
    loop over the tilts would raise it. For B >= 2 the gap s_+ + s_- is
    twice the midpoint of the chord of Lambda at height -r."""
    require_periodic(env, "rate evaluation")
    rs = tuple(float(r) for r in rs)
    both = _raise_first(_lyapunov_samples(env, rs, directions=(1, -1)))
    lambdas = tuple(lam.value for lam in both[::2])
    lambdas_bar = tuple(lam_bar.value for lam_bar in both[1::2])
    gaps = tuple(b - a for a, b in zip(lambdas, lambdas_bar))
    finite = [g for g in gaps if math.isfinite(g)]
    return AsymmetryDemo(
        rs=rs,
        lambdas=lambdas,
        lambdas_bar=lambdas_bar,
        gaps=gaps,
        variation=max(finite) - min(finite) if len(finite) > 1 else math.nan,
    )
