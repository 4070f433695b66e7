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
The drift equation is solved by a port of Brent's bracketed root finder
(Brent 1973, as in scipy's brentq), so the analytic tasks never load
scipy.optimize. It is written as a step generator, so that each speed of a
grid runs as a search of `passage.lockstep` (`rate_grid`). A classical
one-step Legendre transform for homogeneous environments rides along as an
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .environment import Environment, JumpLaw, reflect, require_periodic
from .errors import RwreError, SlowConvergenceError
from .passage import (
    PerronPoint,
    RcEstimate,
    drift_limits,
    edge_rate,
    estimate_rc,
    lockstep,
    log_perron,
    lyapunov,
)

# threshold brackets are deterministic and shared across every velocity query
_rc_cached = lru_cache(maxsize=256)(estimate_rc)

# speeds this close to an end of the drift range take the end's limit value
_EDGE_TOL = 1e-12


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


def _signbit(x: float) -> bool:
    return math.copysign(1.0, x) < 0.0


def _brent_steps(a: float, b: float, xtol: float, rtol: float, maxiter: int,
                 fa: float | None = None, fb: float | None = None):
    """Brent's method for a root in [a, b] as a step generator: it yields
    each x to evaluate, is sent f(x), and returns the root.

    A line-for-line port of scipy's brentq.c, with the same floating-point
    operations in the same order, so it returns the same float. fa and fb,
    when given, are f(a) and f(b) already in hand. A NaN value, a bracket
    without a sign change or an exhausted budget raises SlowConvergenceError
    whose diagnostics carry the bracket and the iteration count.
    """

    def fail(message: str, it: int, **extra) -> SlowConvergenceError:
        return SlowConvergenceError(
            message, diagnostics={"bracket": [a, b], "iterations": it, **extra}
        )

    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre = (yield xpre) if fa is None else fa
    fcur = (yield xcur) if fb is None else fb
    if math.isnan(fpre) or math.isnan(fcur):
        raise fail("root finder met NaN at an end of its bracket", 0, f_bracket=[fpre, fcur])
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise fail("root finder bracket has no sign change", 0, f_bracket=[fpre, fcur])
    for it in range(1, maxiter + 1):
        if fpre != 0.0 and fcur != 0.0 and _signbit(fpre) != _signbit(fcur):
            xblk = xpre
            fblk = fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre = xcur
            xcur = xblk
            xblk = xpre
            fpre = fcur
            fcur = fblk
            fblk = fpre

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # good short step
                spre = scur
                scur = stry
            else:
                # bisect
                spre = sbis
                scur = sbis
        else:
            # bisect
            spre = sbis
            scur = sbis

        xpre = xcur
        fpre = fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = yield xcur
        if math.isnan(fcur):
            raise fail(f"root finder met NaN at x={xcur}", it, x=xcur)
    raise fail(f"root finder did not converge in {maxiter} iterations", maxiter, x=xcur)


def _slope_root_steps(xi: float):
    """The point at the tilt s with Lambda'(s) = xi, for xi inside the drift
    range, as a `passage.lockstep` search. A walk outward from 0 brackets s,
    then Brent's method finds it; an error raised inside the Brent phase is
    reported with xi."""
    p0 = yield 0.0
    f0 = p0.slope - xi
    if f0 == 0.0:
        return p0
    # Lambda' increases; walk outward from 0 until the sign flips
    a, pa = 0.0, p0
    b = 1.0 if f0 < 0.0 else -1.0
    pb = yield b
    while (pb.slope - xi < 0.0) == (f0 < 0.0):
        a, pa = b, pb
        b = 2.0 * b
        if abs(b) > 1e4:
            raise SlowConvergenceError(
                f"drift equation has no bracket within |s| <= 1e4 at xi={xi}",
                diagnostics={"xi": xi},
            )
        pb = yield b
    seen = {a: pa, b: pb}  # Brent's root is one of the tilts it was sent
    a, b = min(a, b), max(a, b)
    steps = _brent_steps(a, b, xtol=1e-13, rtol=8.9e-16, maxiter=300,
                         fa=seen[a].slope - xi, fb=seen[b].slope - xi)
    try:
        s = next(steps)
        while True:
            seen[s] = pt = yield s
            s = steps.send(pt.slope - xi)
    except StopIteration as stop:
        return seen[stop.value]
    except SlowConvergenceError as e:
        raise SlowConvergenceError(
            f"drift equation at xi={xi}: {e}", diagnostics={"xi": xi, **e.diagnostics}
        ) from e


def _limit_rate(env: Environment, xi: float, rc_tol: float) -> RateResult | None:
    """The rate at a speed xi >= 0 that needs no drift root: outside the
    drift range, at its upper end, or at zero. None for interior speeds."""
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
    return None


def _rate_grid(env: Environment, bar: Environment | None, xis: list[float],
               rc_tol: float) -> list[RateResult]:
    """`rate_grid` with the reflected environment bar given (or None, to
    build it when a leftward speed needs it)."""
    results: list = [None] * len(xis)
    jobs, interior = [], []
    for i, xi in enumerate(xis):
        if xi < 0 and bar is None:
            bar = reflect(env)
        side, speed = (bar, -xi) if xi < 0 else (env, xi)
        try:
            results[i] = _limit_rate(side, speed, rc_tol)
        except RwreError as e:
            results[i] = e
        if results[i] is None:
            jobs.append((side, _slope_root_steps(speed)))
            interior.append(i)
    for i, pt in zip(interior, lockstep(jobs)):
        results[i] = pt if isinstance(pt, RwreError) else _interior(abs(xis[i]), pt)
    for i, xi in enumerate(xis):
        if isinstance(results[i], RwreError):
            raise results[i]
        if xi < 0:
            results[i] = replace(results[i], xi=xi, slope=-results[i].slope, mirrored=True)
    return results


def _interior(xi: float, pt: PerronPoint) -> RateResult:
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


def rate_grid(env: Environment, xi_grid, rc_tol: float = 1e-8) -> list[RateResult]:
    """Evaluate the rate function on a velocity grid, the interior points
    in lockstep.

    Each interior speed walks out its own bracket and runs its own Brent
    iteration on Lambda'(s) = xi (`_slope_root_steps`) as a job of
    `passage.lockstep`, the reflected environment serving the leftward
    speeds. A point never sees the rest of the grid: its result is a
    function of (env, xi) alone, the same to the last bit as a lone
    `rate(env, xi)`. If points fail, the error of the first failing point
    in grid order is raised, as a loop over the grid would.
    """
    require_periodic(env, "rate evaluation")
    return _rate_grid(env, None, [float(xi) for xi in xi_grid], rc_tol)


def rate(env: Environment, xi: float, rc_tol: float = 1e-8) -> RateResult:
    """Evaluate the rate function at one velocity: `rate_grid` at one point.

    Interior velocities solve Lambda'(s*) = xi by bracketed root finding and
    return s* xi - Lambda(s*), with the drift residual reported. Velocity
    zero returns the midpoint of the threshold bracket, of width <= rc_tol.
    Leftward velocities are solved on the reflected environment.
    """
    return rate_grid(env, (xi,), rc_tol=rc_tol)[0]


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
    require_periodic(env, "rate evaluation")
    bar = reflect(env)
    rc = _rc_cached(env, tol=rc_tol)
    rc_bar = _rc_cached(bar, tol=rc_tol)
    results = _rate_grid(env, bar, [float(xi) for xi in xi_grid], rc_tol)
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
        xi_critical_reflected=xi_critical(bar, rc_est=rc_bar),
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


def symmetry_gaps(env: Environment, xis, rc_tol: float = 1e-8) -> list[SymmetryGap]:
    """I(|xi|) - I(-|xi|) against the predicted skew at every speed of xis,
    with all the rates solved as one rate grid."""
    require_periodic(env, "rate evaluation")
    speeds = [abs(float(xi)) for xi in xis]
    # right and left speed of each point in turn: the order a loop over the
    # points would meet them, and so the error it would raise first
    rates = rate_grid(env, [v for xi in speeds for v in (xi, -xi)], rc_tol=rc_tol)
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
    variation: float


def asymmetry_demo(env: Environment, rs) -> AsymmetryDemo:
    """lambda and lambda_bar at each tilt of rs; lambda_bar is lambda of the
    reflected environment, built once."""
    require_periodic(env, "rate evaluation")
    bar = reflect(env)
    rs = tuple(float(r) for r in rs)
    pairs = [(lyapunov(env, r).value, lyapunov(bar, r).value) for r in rs]
    gaps = tuple(lam_bar - lam for lam, lam_bar in pairs)
    return AsymmetryDemo(
        rs=rs,
        lambdas=tuple(lam for lam, _ in pairs),
        lambdas_bar=tuple(lam_bar for _, lam_bar in pairs),
        gaps=gaps,
        variation=max(gaps) - min(gaps),
    )
