"""Passage-time moment generating functions and their Lyapunov exponents.

For a walk in environment omega started at x, the level-n passage time
tau_n is the first time the walk reaches [n, n+B). The truncated MGF

    h(x) = E_x[exp(r tau_n); tau_n finite, walk stays above -M]

solves a fixed-point equation h = T h with T the one-step transfer
operator, h pinned to 1 on [n, n+B) and to 0 below -M. Everything in this
module is built from that object: harmonic ratios u_r(x, z), the
exponential growth rate lambda(r) of the MGF per level, its left-passage
mirror, the criticality threshold r_c where the MGF stops being finite,
and the characteristic-polynomial shortcut available in the homogeneous
case.

Periodic and homogeneous environments go through a finite Perron core:
h(x) = e^{s x} phi(x mod L) with phi the Perron vector of the class-cycle
kernel K_s, so lambda(r), r_c and the rate function all follow from
searches over log rho(K_s), all of which `lockstep` runs on stacked
evaluations of the core. One of them, Brent's method on the drift equation
Lambda'(s) = xi (`_slope_root_steps`), serves both the rate function,
which runs it to its root, and r_c = -min Lambda = I(0), which runs it at
xi = 0 until its bracket on min Lambda is narrow enough. The reflected
environment has Lambda(-s) for its Lambda, so no search runs on it: a
leftward speed is a root at a negative tilt, the reflection's r_c is the
same, and lambda_bar(r) = s_- and lambda(r) = -s_+ for the roots
s_- < s_+ of Lambda(s) = -r. `_periodic_limits` gives the harmonic ratios
of either direction at a grid of tilts in closed form, by one of two
routes: the zeta recursion for B = 1, tilt by tilt, and the Perron vector
at a root of log rho(K_s) = -r for B >= 2, the roots of all the tilts
running as the jobs of one lockstep. Both routes share one check against
the row-stochasticity of the tilted kernel (a miss above 1e-10 raises) and
one ellipticity check; an unsettled zeta sweep raises too, since near the
critical tilt its rows can pass the residual check with a wrong value. A
periodic `u_limit` is its one-point case, and `_lyapunov_samples` reads the
growth rates off it, each sample the same to the last bit as at one tilt.
The module keeps no memo. Sampled windows use the fixed-point solve, on
log h to avoid underflow across long windows.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from .environment import (
    Environment,
    class_cycle,
    offset_index,
    offsets,
    reflect,
    require_periodic,
)
from .errors import (
    DriftMismatchError,
    RwreError,
    SlowConvergenceError,
    SupercriticalError,
    WindowExhaustedError,
)

NEG_INF = -np.inf


def contraction_rate(env: Environment, r: float) -> float:
    """Geometric rate certificate c(r) = (1 - (delta e^r)^{2B})^{1/B} for the
    stabilization of harmonic ratios in the level n. Valid for delta e^r < 1;
    close to 1 in any interesting regime, so it is used as a schedule hint
    rather than a stopping rule."""
    eps = env.delta * math.exp(r)
    if eps >= 1.0:
        return 1.0
    return (1.0 - eps ** (2 * env.b)) ** (1.0 / env.b)


def _log_rows(env: Environment, x_lo: int, x_hi: int, r: float) -> np.ndarray:
    """log(prob) + r per site x in [x_lo, x_hi) and offset, -inf off support."""
    if env.kind == "iid":
        lo, hi = env.window
        if x_lo < lo or x_hi - 1 > hi:
            raise WindowExhaustedError(
                f"need laws on [{x_lo}, {x_hi - 1}] but window is [{lo}, {hi}]; widen the window"
            )
        arr = env.probs[x_lo - lo : x_hi - lo]
    else:
        arr = env.probs[np.arange(x_lo, x_hi) % len(env.laws)]
    with np.errstate(divide="ignore"):
        return np.where(arr > 0, np.log(np.maximum(arr, 1e-300)) + r, NEG_INF)


@dataclass(frozen=True, eq=False)
class MgfSolve:
    """Truncated passage-time MGF on sites [-m_trunc, level + b)."""

    r: float
    level: int
    m_trunc: int
    b: int
    log_h: np.ndarray  # indexed by x + m_trunc, length m_trunc + level + b
    iterations: int
    converged: bool
    sup_update: float
    status: str  # "converged" | "max-iter" | "supercritical-or-diverged"
    err_bound: float  # left-truncation bound; nan when r >= 0

    def log_h_at(self, x: int) -> float:
        i = x + self.m_trunc
        if i < 0:
            return NEG_INF
        if i >= len(self.log_h):
            raise IndexError(f"site {x} outside solve range")
        return float(self.log_h[i])

    def h_at(self, x: int) -> float:
        return float(math.exp(self.log_h_at(x))) if np.isfinite(self.log_h_at(x)) else 0.0

    @property
    def h(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_h)


def default_m_trunc(env: Environment, r: float, level: int, tol: float = 1e-12) -> int:
    """Left-truncation depth: the certificate value when affordable, else a
    proportional fallback. The certificate rate is so close to 1 for small
    delta e^r that honoring it literally would demand windows of 1e5+ sites;
    callers that need certified truncation error grow m explicitly."""
    c = contraction_rate(env, r)
    cap = max(4 * level, 256)
    if c < 1.0:
        cert = level + int(math.ceil(math.log(tol) / math.log(c)))
        if 0 < cert <= cap:
            return cert
    return cap


def hit_mgf(
    env: Environment, r: float, level: int, m_trunc: int | None = None, tol: float = 1e-12
) -> MgfSolve:
    """Monotone fixed-point solve for the truncated passage-time MGF.

    Starts from the indicator of the target slab and applies the transfer
    operator until the sup-norm update falls below tol; the iterates
    increase pointwise at every step. Divergence is
    declared when any site exceeds a rigorous envelope for subcritical
    values, or when updates keep growing over 50 consecutive sweeps.
    """
    if level < 1:
        raise ValueError("level must be >= 1")
    b = env.b
    if m_trunc is None:
        m_trunc = default_m_trunc(env, r, level, tol)
    max_iter = max(20_000, 40 * (m_trunc + level))
    lp = _log_rows(env, -m_trunc, level, r)  # interior sites only
    W = m_trunc + level
    pad = b
    logh = np.full(pad + W + b, NEG_INF)
    logh[pad + W:] = 0.0  # target slab [level, level+b)

    # envelope: true subcritical values satisfy h(x) <= (delta e^r)^{-B(level-x)}
    # (and h <= 1 when r <= 0); crossing it certifies divergence
    xs = np.arange(-m_trunc, level)
    log_eps = math.log(env.delta) + r
    if r <= 0:
        cap = np.full(W, 1e-6)
    else:
        cap = b * (level - xs) * (-log_eps) + math.log(10.0)

    sup_hist: list[float] = []
    status = "max-iter"
    converged = False
    sup = math.inf
    it = 0
    # Every sweep runs in these buffers. Row j of cands is lp[:, j] plus
    # log h shifted by the offset z_j; the shifted copies are the windows
    # of logh that start at pad + z, for z = -b..-1 (below) and 1..b (above).
    lpT = np.ascontiguousarray(lp.T)
    windows = np.lib.stride_tricks.sliding_window_view(logh, W)
    below, above = windows[pad - b: pad], windows[pad + 1: pad + b + 1]
    cands = np.empty((2 * b, W))
    new, diff = np.empty((2, W))
    fin_new, fin_old = np.empty((2, W), dtype=bool)
    old = logh[pad: pad + W]
    with np.errstate(invalid="ignore"):  # -inf - -inf in diff, for sites not yet reached
        while it < max_iter:
            it += 1
            np.add(lpT[:b], below, out=cands[:b])
            np.add(lpT[b:], above, out=cands[b:])
            np.logaddexp.reduce(cands, axis=0, out=new)
            np.subtract(new, old, out=diff)
            np.abs(diff, out=diff)
            np.isfinite(new, out=fin_new)
            np.isfinite(old, out=fin_old)
            np.greater(fin_new, fin_old, out=fin_new)  # sites finite for the first time
            if fin_new.any():
                sup = math.inf
            else:
                np.isfinite(diff, out=fin_old)
                sup = float(diff.max(initial=0.0, where=fin_old))
            old[:] = new
            if sup <= tol:
                status = "converged"
                converged = True
                break
            if it % 16 == 0 and bool(np.any(new > cap)):
                status = "supercritical-or-diverged"
                break
            sup_hist.append(sup)
            if len(sup_hist) >= 51 and math.isfinite(sup):
                last = sup_hist[-51:]
                if all(l2 >= l1 for l1, l2 in zip(last, last[1:])) and sup > 1e3 * tol:
                    status = "supercritical-or-diverged"
                    break

    if r < 0:
        # paths killed at -m_trunc must cross the window down and up again:
        # at least 2 m_trunc / B extra steps, each weighted e^r
        err = math.exp(2.0 * r * m_trunc / b) / (1.0 - math.exp(r))
    else:
        err = math.nan
    return MgfSolve(
        r=r,
        level=level,
        m_trunc=m_trunc,
        b=b,
        log_h=logh[pad:],
        iterations=it,
        converged=converged,
        sup_update=sup,
        status=status,
        err_bound=err,
    )


@dataclass(frozen=True)
class BruteMgf:
    value: float
    tail_bound: float
    max_len: int


def brute_mgf(env: Environment, r: float, level: int, max_len: int) -> BruteMgf:
    """Exact finite-horizon passage-time MGF by exhaustive path weight
    propagation: sum of e^{r k} P(tau_level = k) over k <= max_len, plus the
    rigorous geometric tail bound e^{r max_len} / (1 - e^r). Requires r < 0
    so that the tail is summable."""
    if r >= 0:
        raise ValueError("brute-force oracle needs r < 0")
    b = env.b
    lo = -b * max_len - 1
    offs = offsets(b)
    size = level - lo
    mass = np.zeros(size)
    mass[-lo] = 1.0
    total = 0.0
    for k in range(1, max_len + 1):
        new = np.zeros(size)
        hit = 0.0
        nz = np.nonzero(mass)[0]
        for i in nz:
            x = i + lo
            pr = env.probs[env.site_class(x)]
            for j, z in enumerate(offs):
                if pr[j] == 0.0:
                    continue
                y = x + int(z)
                w = mass[i] * pr[j]
                if y >= level:
                    hit += w
                elif y >= lo:
                    new[y - lo] += w
        total += math.exp(r * k) * hit
        mass = new
        if not mass.any():
            break
    tail = math.exp(r * max_len) / (1.0 - math.exp(r))
    return BruteMgf(value=total, tail_bound=tail, max_len=max_len)


# ---------------------------------------------------------------------------
# nearest-neighbor recursion


@dataclass(frozen=True, eq=False)
class ZetaSolve:
    """Per-class one-level passage MGFs zeta(x) = E_x[e^{r tau_{x+1}}] for
    nearest-neighbor periodic environments."""

    r: float
    zeta: np.ndarray
    cycles: int
    residual: float
    converged: bool


# sweeps of the zeta recursion: stop once no class moves by more than
# _ZETA_TOL, give up after _ZETA_MAX_CYCLES
_ZETA_TOL = 1e-15
_ZETA_MAX_CYCLES = 2_000_000


def zeta_nn(env: Environment, r: float) -> ZetaSolve:
    """One-level passage MGFs for B = 1 via the forward recursion

        zeta(x) = p(x) e^r / (1 - q(x) e^r zeta(x-1)),

    iterated around the class cycle to its minimal fixed point. A
    nonpositive denominator or unbounded growth signals a supercritical
    tilt.
    """
    if env.b != 1:
        raise ValueError("zeta recursion requires nearest-neighbor jumps")
    require_periodic(env, "the zeta recursion")
    e = math.exp(r)
    L = env.period
    q, p = env.probs.T.tolist()
    zeta = [0.0] * L
    bound = 1.01 * (1.0 if r <= 0 else 1.0 / (env.delta * e))
    cycles, settled = 0, False
    while cycles < _ZETA_MAX_CYCLES and not settled:
        cycles += 1
        settled, over, last = True, False, zeta[-1]
        for i in range(L):
            den = 1.0 - q[i] * e * last
            if den <= 0.0:
                raise SupercriticalError(
                    f"zeta recursion denominator {den} <= 0 at class {i}",
                    r=r,
                    diagnostics={"cycles": cycles, "class": i},
                )
            last = p[i] * e / den
            settled &= abs(last - zeta[i]) <= _ZETA_TOL  # a NaN change never settles
            over |= last > bound
            zeta[i] = last
        if over:
            raise SupercriticalError(
                "zeta recursion exceeded its subcritical bound",
                r=r,
                diagnostics={"cycles": cycles, "max_zeta": float(np.max(zeta))},
            )
    zeta = np.array(zeta)
    resid = np.abs(env.probs[:, 1] * e / zeta + env.probs[:, 0] * e * zeta[env.targets[:, 0]] - 1.0)
    return ZetaSolve(r=r, zeta=zeta, cycles=cycles, residual=max(0.0, *resid.tolist()),
                     converged=settled)


# ---------------------------------------------------------------------------
# Markov-additive Perron core for periodic environments
#
# The walk is a Markov additive process on its L site classes. With
#   K_s[i, (i+z) mod L] = p_i(z) e^{s z},   Lambda(s) = log rho(K_s),
# the passage MGF from x is h(x) = e^{s x} phi(x mod L) for phi the right
# Perron vector of K_s at the larger root s of Lambda(s) = -r, so that
# lambda(r) = -s; r_c = -min_s Lambda(s); and I(xi) = sup_s [s xi - Lambda(s)]
# (Ney & Nummelin 1987; Dembo & Zeitouni, section 3.1). Lambda is convex.


@dataclass(frozen=True, eq=False)
class PerronPoint:
    """Lambda(s) = log rho(K_s), its slope, the right Perron vector, and a
    Collatz-Wielandt bracket on Lambda(s) from that vector."""

    s: float
    value: float
    slope: float  # <l, K'_s phi> / (rho <l, phi>), the tilted drift at s
    right: np.ndarray  # phi: positive, sums to 1
    bracket: tuple[float, float]  # log min/max (K_s phi)_i / phi_i; holds log rho(K_s)


# A bordered solve leaves one equation to the rounding of rho: accept the
# first border while its class holds at least this share of the largest
# stationary weight (its Collatz-Wielandt width is then at most this many
# times the best border's).
_BORDER_SLACK = 8.0

# K_s entries per stacked LAPACK call: a stack holds budget // L^2 tilts (at
# least one), which keeps its matrices at a few hundred kB
_STACK_BUDGET = 1 << 14


def _refused(s: float, what: str, linalg: str) -> SlowConvergenceError:
    return SlowConvergenceError(f"{what} at s={s}", diagnostics={"s": s, "linalg": linalg})


def _bordered_solve(K: np.ndarray, rho: np.ndarray, border: np.ndarray) -> np.ndarray:
    """(rho I - K) phi = 0 and (rho I - K)^T l = 0 with equation k of each
    replaced by sum = 1, for a stack of n matrices K, their n roots rho and
    their border classes k, marked True in the (n, L) rows of border, as 2n
    systems in one LU call; returns the (2, n, L) rows phi and l, NaN where
    LAPACK refused a system."""
    n, L, _ = K.shape
    M = np.empty((2, n, L, L))
    np.negative(K, out=M[0])
    M[0].reshape(n, L * L)[:, :: L + 1] += rho[:, None]
    M[1] = M[0].transpose(0, 2, 1)
    border = border[:, :, None]  # row k of both systems, and e_k
    np.copyto(M, 1.0, where=border)
    return _umath_linalg.solve(M, border.astype(float), signature="dd->d")[..., 0]


def _perron_vectors(K: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Right and left Perron vectors phi, l of a stack of K from bordered
    solves, as a (2, n, L) array.

    Every equation kept in `_bordered_solve` holds at the computed rho, so
    every Collatz-Wielandt quotient (K phi)_i / phi_i but the k-th is rho
    itself, and the k-th is off by about (rho' - rho) <l, phi> / (l_k phi_k),
    rho' - rho being the eigenvalue's rounding. The pairs are solved at
    k = 0, and once more, on the points that need it, at the class of
    largest stationary weight l_k phi_k when class 0 holds less than
    1/_BORDER_SLACK of it.
    """
    n, L, _ = K.shape
    if L == 1:
        return np.ones((2, n, 1))
    first = np.zeros((n, L), dtype=bool)
    first[:, 0] = True
    vecs = _bordered_solve(K, rho, first)
    weight = vecs[0] * vecs[1]
    k = weight.argmax(axis=1)
    redo = [m for m, (w, j) in enumerate(zip(weight.tolist(), k.tolist()))
            if w[j] > _BORDER_SLACK * w[0]]
    if redo:
        vecs[:, redo] = _bordered_solve(K[redo], rho[redo], np.equal.outer(k[redo], np.arange(L)))
    return vecs


def _perron_chunk(env: Environment, ss: list[float]) -> list:
    """`perron_stack` on one stack: one eigvals call and one or two stacked
    bordered solves.

    The LAPACK calls go to the gufuncs under `np.linalg.eigvals` and
    `np.linalg.solve`: on matrices this small the wrappers' checks cost
    more than LAPACK does (about 15 of the 20 us of eigvals at L = 3). A
    gufunc fills the output of a matrix that LAPACK refuses with NaN, where
    a wrapper raises LinAlgError for the whole stack; so a refusal fails
    only its own tilt, with the wrapper's message.
    """
    offs = offsets(env.b).astype(float)
    probs = env.probs
    n, L = len(ss), len(probs)
    shifts = [abs(s) * env.b for s in ss]
    out: list = [None] * n
    with np.errstate(all="ignore"):  # refusals are read off the NaN they leave
        rows = probs * np.exp(np.multiply.outer(ss, offs) - np.array(shifts)[:, None])[:, None]
        K = class_cycle(env, rows)  # entries in [0, 1], or NaN where a shift is not finite
        if L == 1:  # homogeneous: K_s is the scalar sum_z p(z) e^{s z - shift}
            tops = K.ravel().tolist()
        else:
            for m, shift in enumerate(shifts):
                if not math.isfinite(shift):  # numpy's eigvals refuses NaN; LAPACK gets zeros
                    K[m] = 0.0
                    out[m] = _refused(ss[m], "eigen-solve of K_s failed",
                                      "Array must not contain infs or NaNs")
            eig = _umath_linalg.eigvals(K, signature="d->D")
            # the Perron root has the largest real part
            tops = [row[k] for row, k in zip(eig.tolist(), eig.real.argmax(axis=1).tolist())]
        live = []  # positions of the tilts still standing
        for m, top in enumerate(tops):
            if out[m] is not None:
                continue
            if top.imag == 0.0 and math.isfinite(top.real) and top.real > 0.0:
                live.append(m)
            elif L > 1 and cmath.isnan(top):
                out[m] = _refused(ss[m], "eigen-solve of K_s failed", "Eigenvalues did not converge")
            else:
                out[m] = SlowConvergenceError(
                    f"no finite positive real Perron root of K_s at s={ss[m]}",
                    diagnostics={"s": ss[m], "eigenvalue": [top.real, float(top.imag)]},
                )
        if len(live) < n:
            if not live:
                return out
            K, rows = K[live], rows[live]
        roots = [tops[m].real for m in live]
        phi, left = _perron_vectors(K, np.array(roots))  # phi sums to 1 up to rounding
        terms = rows * phi[:, env.targets]  # K_s phi and K'_s phi, term by term
        quot = np.add.reduce(terms, axis=2) / phi  # Collatz-Wielandt quotients
        per_point = zip(
            live, roots, np.minimum.reduce(phi, axis=1).tolist(),
            np.vecdot(left, terms @ offs).tolist(), np.vecdot(left, phi).tolist(),
            np.minimum.reduce(quot, axis=1).tolist(), np.maximum.reduce(quot, axis=1).tolist(),
            phi, left,
        )
    for m, r, low, num, den, q_lo, q_hi, right, lvec in per_point:
        if math.isnan(low) or (math.isnan(den) and np.isnan(lvec).any()):
            out[m] = _refused(ss[m], "bordered Perron-vector solve failed", "Singular matrix")
        elif not low > 0.0:
            out[m] = SlowConvergenceError(
                f"Perron vector of K_s not positive at s={ss[m]}",
                diagnostics={"s": ss[m], "min": low},
            )
        else:
            value = math.log(r) + shifts[m]
            out[m] = PerronPoint(
                s=ss[m],
                value=value,
                slope=num / (r * den),
                right=right,
                # a class whose row of the scaled K_s underflowed has quotient 0
                bracket=(value + math.log(q_lo / r) if q_lo / r > 0.0 else -math.inf,
                         value + math.log(q_hi / r)),
            )
    return out


def perron_stack(env: Environment, ss) -> list:
    """Lambda and Lambda' at every tilt of ss, with numpy's LAPACK only.

    For each stack of at most _STACK_BUDGET // L^2 tilts: rho from one
    eigvals call over the stacked K_s, the right and left Perron vectors phi
    and l from stacked bordered solves of (rho I - K_s) (`_perron_vectors`;
    l_i phi_i is the stationary law of the tilted chain), then per tilt the
    slope <l, K'_s phi> / (rho <l, phi>) and the Collatz-Wielandt quotients
    (K_s phi)_i / phi_i from the (L, 2B) rows, in O(L B).

    K_s is scaled by e^{-|s| B}, which leaves the vectors and the slope
    unchanged and keeps the entries finite for large |s|. Entry m is the
    PerronPoint at ss[m], the same to the last bit whatever else the stack
    holds, or the SlowConvergenceError that names ss[m].
    """
    ss = [float(s) for s in ss]
    per = max(1, _STACK_BUDGET // env.period ** 2)
    return [pt for i in range(0, len(ss), per) for pt in _perron_chunk(env, ss[i:i + per])]


def log_perron(env: Environment, s: float) -> PerronPoint:
    """`perron_stack` at one tilt; raises its SlowConvergenceError."""
    return _raise_first(_perron_chunk(env, [float(s)]))[0]


def _caught(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the RwreError it raises: an entry of a list of
    results, as `lockstep` returns them."""
    try:
        return fn(*args, **kwargs)
    except RwreError as e:
        return e


def _raise_first(entries: list) -> list:
    """entries, when none is an RwreError; the first that is, raised, as a
    loop over the entries would raise it."""
    for x in entries:
        if isinstance(x, RwreError):
            raise x
    return entries


def lockstep(jobs) -> list:
    """Run searches over Lambda in lockstep, one `perron_stack` call per
    environment and round.

    A job is (env, search); a search is a generator that yields each tilt s
    it needs, is sent the PerronPoint at s (or has the SlowConvergenceError
    naming s thrown in), and returns its result. A point does not depend on
    its stack, so a search ends as it would alone. Entry m is job m's result
    or the RwreError its search raised.
    """
    out: list = [None] * len(jobs)
    todo = [(m, search.send, None) for m, (_, search) in enumerate(jobs)]
    while todo:
        stacks: dict[int, list] = {}  # id(env) -> (job, tilt) of each search asking
        for m, step, arg in todo:
            try:
                s = step(arg)
            except StopIteration as stop:
                out[m] = stop.value
            except RwreError as e:
                out[m] = e
            else:
                stacks.setdefault(id(jobs[m][0]), []).append((m, s))
        todo = []
        for asks in stacks.values():
            pts = perron_stack(jobs[asks[0][0]][0], [s for _, s in asks])
            for (m, _), pt in zip(asks, pts):
                search = jobs[m][1]
                todo.append((m, search.throw if isinstance(pt, RwreError) else search.send, pt))
    return out


def _class_mean_starts(env: Environment, rs: list[float], direction: int = 1) -> list[float]:
    """Starting tilts t = direction * s for _perron_root, one per r of rs:
    the larger root of mean_i log g_i(t) = -r, with g_i(t) the row sums
    sum_z p_i(z) e^{t direction z} of K_{direction t}, by a few Newton steps
    from _perron_root's safe tilt, all the tilts in one pass per step; a
    tilt whose slope turns nonpositive, or whose step is not finite (e^{t z}
    overflows far right of a tilt beyond the threshold), keeps its safe
    tilt. The class-averaged cumulant is convex and close to Lambda, and
    costs no eigen-solve."""
    offs = direction * offsets(env.b).astype(float)
    L = len(env.probs)
    safe = [1.0 - math.log(env.delta) - r for r in rs]
    s = list(safe)
    live = list(range(len(rs)))
    for _ in range(8):
        with np.errstate(over="ignore", invalid="ignore"):  # shows as a non-finite step
            terms = env.probs * np.exp(np.multiply.outer([s[m] for m in live], offs))[:, None]
            g = terms.sum(axis=2)
            slopes = ((terms @ offs) / g).sum(axis=1).tolist()
            logs = np.log(g).sum(axis=1).tolist()
        still = []
        for m, slope, log_g in zip(live, slopes, logs):
            slope /= L
            step = (log_g / L + rs[m]) / slope if slope > 0.0 else math.nan
            if math.isfinite(step):
                s[m] -= step
                still.append(m)
            else:
                s[m] = safe[m]
        live = still
    return s


def _perron_root(env: Environment, r: float, t: float, direction: int = 1):
    """`lockstep` search for the point at the larger (direction 1) or the
    smaller (-1) root of Lambda(s) = -r, from the start t of
    `_class_mean_starts`: Newton on t = direction * s, at the tilts
    direction * t, with the slope direction * Lambda'.

    From any start where that slope is positive the first Newton step lands
    right of the root, and on a convex function Newton's iterates then
    decrease monotonically onto it; a nonpositive slope on the way means
    min Lambda > -r, that is r > r_c. A start left of the minimiser falls
    back to t = 1 - log(delta) - r, right of both the root and the minimiser
    because Lambda(s) >= log(delta) + |s|.
    """
    safe = 1.0 - math.log(env.delta) - r
    pt = yield direction * t
    if direction * pt.slope <= 0.0 and t < safe:
        t = safe
        pt = yield direction * t
    right_of_root = False
    for _ in range(200):  # linear near r_c, where it takes about 25 steps
        f = pt.value + r
        slope = direction * pt.slope
        if f <= 0.0 and right_of_root:
            return pt  # reached, or overshot by rounding
        if slope <= 0.0:
            raise SupercriticalError(
                "no root of log rho(K_s) = -r: the tilt exceeds the threshold",
                r=r,
                diagnostics={"s": direction * t, "min_log_rho_upper": pt.value},
            )
        step = f / slope
        if 0.0 <= step <= 4e-16 * max(1.0, abs(t)):
            return pt
        right_of_root = True
        t -= step
        pt = yield direction * t
    raise SlowConvergenceError(
        f"Newton on log rho(K_s) = -r did not settle at r={r}",
        diagnostics={"s": direction * t, "residual": f},
    )


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


class SlopeRoot(NamedTuple):
    """What a drift-root search leaves: min_s [Lambda(s) - s xi], which is
    -I(xi), lies in [crossing, least]."""

    point: PerronPoint | None  # Brent's root; None when tol stopped the search first
    least: float  # least Lambda(s) - s xi over the tilts evaluated
    crossing: float  # min(least, crossing of the tangents at below and above)
    below: PerronPoint  # the largest tilt evaluated with Lambda' <= xi
    above: PerronPoint  # the smallest tilt evaluated with Lambda' >= xi
    evaluations: int


def _slope_root(seen: dict, xi: float, root: PerronPoint | None) -> SlopeRoot:
    """The SlopeRoot of the points seen, once they hold both signs of
    Lambda' - xi. The convex Lambda(s) - s xi lies above its tangents, so
    its minimum is at least where the tangents at below and above cross."""
    below = max((p for p in seen.values() if p.slope <= xi), key=lambda p: p.s)
    above = min((p for p in seen.values() if p.slope >= xi), key=lambda p: p.s)
    least = min(p.value - p.s * xi for p in seen.values())
    ga, gb = below.value - below.s * xi, above.value - above.s * xi
    da, db = below.slope - xi, above.slope - xi
    if da < 0.0 < db:
        x = (gb - ga + da * below.s - db * above.s) / (da - db)
        floor = ga + da * (x - below.s)
    else:  # a root among the points
        floor = ga if da == 0.0 else gb
    return SlopeRoot(root, least, min(least, floor), below, above, len(seen))


def _slope_root_steps(xi: float, tol: float | None = None):
    """`lockstep` search for the tilt s with Lambda'(s) = xi, for xi inside
    the drift range. A walk outward from 0 brackets s, then Brent's method
    finds it; an error raised inside the Brent phase is reported with xi.

    Without tol, Brent runs to its end. With tol, the search stops once the
    bracket [crossing, least] on min_s [Lambda(s) - s xi] (`_slope_root`)
    is at most tol wide; at xi = 0 that is min Lambda = -r_c
    (`estimate_rc`). Returns a SlopeRoot.
    """
    p0 = yield 0.0
    f0 = p0.slope - xi
    seen = {0.0: p0}  # every point sent, by tilt; Brent's root is one of them
    if f0 == 0.0:
        return _slope_root(seen, xi, p0)
    # Lambda' increases; walk outward from 0 until the sign flips
    a, b = 0.0, (1.0 if f0 < 0.0 else -1.0)
    seen[b] = yield b
    while (seen[b].slope - xi < 0.0) == (f0 < 0.0):
        a, b = b, 2.0 * b
        if abs(b) > 1e4:
            raise SlowConvergenceError(
                f"drift equation has no bracket within |s| <= 1e4 at xi={xi}",
                diagnostics={"xi": xi},
            )
        seen[b] = yield b
    a, b = min(a, b), max(a, b)
    steps = _brent_steps(a, b, xtol=1e-13, rtol=8.9e-16, maxiter=300,
                         fa=seen[a].slope - xi, fb=seen[b].slope - xi)
    try:
        s = next(steps)
        while tol is None or (found := _slope_root(seen, xi, None)).least - found.crossing > tol:
            seen[s] = yield s
            s = steps.send(seen[s].slope - xi)
        return found
    except StopIteration as stop:
        return _slope_root(seen, xi, seen[stop.value])
    except SlowConvergenceError as e:
        raise SlowConvergenceError(
            f"drift equation at xi={xi}: {e}", diagnostics={"xi": xi, **e.diagnostics}
        ) from e


def _max_cycle_mean(env: Environment, sign: float) -> tuple[float, np.ndarray]:
    """Karp's maximum mean weight over cycles of the class graph (an edge
    i -> i+z per supported jump, weight sign*z), and longest-path potentials
    u for the weights sign*z - mean, so that sign*z - mean + u_i - u_{i+z}
    is <= 0 on every edge and 0 on the edges of maximal-mean cycles."""
    L = env.period
    offs = offsets(env.b)
    src = (np.arange(L)[:, None] - offs) % L  # the class an edge z into class j leaves
    weight = np.where(env.probs[src, np.arange(len(offs))] > 0, sign * offs, NEG_INF)  # -inf off support
    D = np.full((L + 1, L), NEG_INF)  # D[k, j]: heaviest k-step walk 0 -> j
    D[0, 0] = 0.0
    for k in range(1, L + 1):
        np.max(D[k - 1][src] + weight, axis=1, out=D[k])
    ends = np.isfinite(D[L])
    ratios = (D[L, ends] - D[:L, ends]) / (L - np.arange(L))[:, None]
    mean = float(np.max(np.min(ratios, axis=0)))
    u = np.max(D[:L] - np.arange(L)[:, None] * mean, axis=0)
    return mean, u


def drift_limits(env: Environment) -> tuple[float, float]:
    """Attainable drift range (lim Lambda'(s) as s -> -inf and +inf): the
    minimum and maximum mean jump over cycles of the class graph, by Karp's
    method in O(L^2 B), for `level2`. Not memoised; `rate.rate_grid` reads
    the range off the two `_max_cycle_mean` solves its edge rates share."""
    return -_max_cycle_mean(env, -1.0)[0], _max_cycle_mean(env, 1.0)[0]


def edge_rate(env: Environment, sign: float) -> float:
    """Rate at the upper (sign=+1) or lower (sign=-1) end of the drift range:
    the monotone limit of s xi - Lambda(s) as s -> sign*inf, which is
    -log rho of the jump matrix restricted to edges on maximal-mean cycles.
    With every class holding the jump sign*B this is -log rho(P_{sign B})."""
    return _edge_rate(env, sign, *_max_cycle_mean(env, sign))


def _edge_rate(env: Environment, sign: float, mean: float, u: np.ndarray) -> float:
    """`edge_rate` from the (mean, u) that `_max_cycle_mean(env, sign)` gave."""
    probs = env.probs
    tight = (probs > 0) & (sign * offsets(env.b) - mean + u[:, None] - u[env.targets] > -1e-9)
    try:
        rho = float(np.max(np.abs(np.linalg.eigvals(class_cycle(env, np.where(tight, probs, 0.0))))))
    except np.linalg.LinAlgError as e:
        raise SlowConvergenceError(
            "eigen-solve of the edge matrix failed",
            diagnostics={"sign": sign, "linalg": str(e)},
        ) from None
    if not (math.isfinite(rho) and rho > 0.0):
        raise SlowConvergenceError(
            "edge matrix has no finite positive spectral radius",
            diagnostics={"sign": sign, "rho": rho},
        )
    return -math.log(rho)


# ---------------------------------------------------------------------------
# harmonic ratios for periodic environments

# Largest accepted row miss of the tilted kernel built from the ratios: well
# above the rounding of both routes and below the 1e-9 row-defect gate of
# the tilt report.
_RATIO_RESIDUAL_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ULimit:
    """Stabilized harmonic ratios u_r(T_x omega, z).

    For periodic environments rows are indexed by site class and come in
    closed form, with their row-stochasticity miss as `residual`; for window
    environments rows are ratios of one large truncated solve and carry an
    observed Cauchy gap instead.
    """

    env: Environment
    r: float
    mode: str  # "periodic-exact" | "window"
    sites: tuple[int, ...]  # classes (periodic) or absolute sites (window)
    log_u: np.ndarray  # shape (len(sites), 2B)
    n_used: int
    m_used: int
    cauchy_gap: float  # 0.0 for periodic rows
    residual: float
    direction: int = 1  # of the passage whose MGF these are ratios of: +1 right, -1 left

    @property
    def b(self) -> int:
        return self.env.b

    def _row(self, x: int) -> int:
        if self.mode == "periodic-exact":
            return x % len(self.sites)
        i = x - self.sites[0]
        if not (0 <= i < len(self.sites)):
            raise WindowExhaustedError(f"site {x} outside stabilized range {self.sites[0]}..{self.sites[-1]}")
        return i

    def log_u_at(self, x: int, z: int) -> float:
        return float(self.log_u[self._row(x), offset_index(self.b, z)])

    def u_at(self, x: int, z: int) -> float:
        return math.exp(self.log_u_at(x, z))

    @property
    def log_a(self) -> np.ndarray:
        """log u(., direction) per row."""
        return self.log_u[:, offset_index(self.b, self.direction)]


def _periodic_limits(env: Environment, rs, directions=(1,)) -> list:
    """`u_limit` of a periodic environment at every tilt of rs in every
    direction of directions, r by r: entry k is the ULimit at rs[k // n] in
    directions[k % n], for n directions, or the RwreError it raised.

    log u(i, z) = log h(x+z) - log h(x) at a site x of class i: from
    theta_i = -log zeta_i of the zeta recursion for B = 1, tilt by tilt,
    whose left ratios are the right ratios of the reflected environment;
    s z + log phi_{i+z} - log phi_i for B >= 2, at the larger root s of
    Lambda(s) = -r for the right and at the smaller for the left, the roots
    of all the tilts and directions one `lockstep`. Both are certified
    alike, a direction's tilts as one read-only (n, L, 2B) stack reduced
    along its last axis, so each row keeps its lone bits: the tilted rows
    sum_z p_i(z) e^{r + log u(i, z)} sum to 1 within _RATIO_RESIDUAL_TOL
    (the largest miss is `residual`), and log u(., direction) keeps within
    the ellipticity bound -(log delta + r); a miss is a SlowConvergenceError,
    as is a zeta sweep that ran out of cycles before it settled.
    """
    rs = list(rs)
    jobs = [(r, d) for r in rs for d in directions]
    sides = {d: (env, d) if env.b > 1 or d > 0 else (reflect(env), 1) for d in directions}
    if env.b == 1:
        found = [_caught(zeta_nn, sides[d][0], r) for r, d in jobs]
    else:
        starts = [_class_mean_starts(env, rs, d) for d in directions]
        found = lockstep([(env, _perron_root(env, r, t[k], d))
                          for k, r in enumerate(rs) for d, t in zip(directions, starts)])
    out: list = list(found)
    for d in directions:
        ks = [k for k, (_, dk) in enumerate(jobs) if dk == d and not isinstance(found[k], RwreError)]
        if not ks:
            continue
        side, way = sides[d]
        if env.b == 1:
            theta = -np.log([found[k].zeta for k in ks])
            log_u = np.stack([-theta[:, env.targets[:, 0]], theta], axis=2)  # class i - 1, i
        else:
            log_phi = np.log([found[k].right for k in ks])
            s = np.array([found[k].s for k in ks])[:, None, None]
            log_u = s * offsets(env.b) + log_phi[:, env.targets] - log_phi[:, :, None]
        log_u.flags.writeable = False
        tilts = np.array([jobs[k][0] for k in ks])[:, None, None]
        resids = np.abs((side.probs * np.exp(tilts + log_u)).sum(axis=2) - 1.0).max(axis=1)
        worsts = np.abs(log_u[:, :, offset_index(env.b, way)]).max(axis=1)
        for k, lu, res, worst in zip(ks, log_u, resids.tolist(), worsts.tolist()):
            r, sol = jobs[k][0], found[k]
            bound = -(math.log(env.delta) + r)
            if env.b == 1 and not sol.converged:
                out[k] = SlowConvergenceError(
                    f"zeta recursion did not settle in {sol.cycles} cycles at r={r}",
                    diagnostics={"r": r, "cycles": sol.cycles},
                )
            elif not res <= _RATIO_RESIDUAL_TOL:
                out[k] = SlowConvergenceError(
                    f"harmonic ratios miss row-stochasticity by {res:g} at r={r}",
                    diagnostics={"r": r, **({"s": sol.s} if env.b > 1 else {}), "residual": res},
                )
            elif worst > bound + 1e-8:
                out[k] = SlowConvergenceError(
                    "stabilized ratios violate their ellipticity bounds",
                    diagnostics={"max_log_ratio": worst, "bound": bound},
                )
            else:
                out[k] = ULimit(
                    env=side, r=r, mode="periodic-exact", sites=tuple(range(env.period)),
                    log_u=lu, n_used=sol.cycles if env.b == 1 else 0, m_used=0,
                    cauchy_gap=0.0, residual=res, direction=way,
                )
    return out


def u_limit(
    env: Environment,
    r: float,
    tol: float = 1e-10,
    site_range: tuple[int, int] | None = None,
) -> ULimit:
    """Harmonic ratios in the stabilized (large-level) limit.

    Periodic and homogeneous environments get the exactly-periodic ratios
    of `_periodic_limits`, at one tilt; sampled windows get finite-level
    ratios with a doubling-based gap estimate over `site_range` (defaults to
    the widest range the window supports).
    """
    if env.kind in ("homogeneous", "periodic"):
        return _raise_first(_periodic_limits(env, (r,)))[0]

    lo, hi = env.window
    b = env.b
    if site_range is None:
        site_range = (lo + b, hi - 2 * b)
    s_lo, s_hi = site_range
    if s_hi < s_lo:
        raise WindowExhaustedError(
            f"window [{lo}, {hi}] too narrow for any stabilized site; widen the window"
        )
    level = hi + 1
    m = -lo
    full = hit_mgf(env, r, level=level, m_trunc=m, tol=min(tol, 1e-12))
    if full.status == "supercritical-or-diverged":
        raise SupercriticalError("window solve diverged", r=r)
    half = hit_mgf(env, r, level=max(s_hi + b + 1, level // 2), m_trunc=m, tol=min(tol, 1e-12))
    offs = offsets(b)
    sites = tuple(range(s_lo, s_hi + 1))
    log_u = np.zeros((len(sites), 2 * b))
    gap = 0.0
    for i, x in enumerate(sites):
        for j, z in enumerate(offs):
            log_u[i, j] = full.log_h_at(x + int(z)) - full.log_h_at(x)
            other = half.log_h_at(x + int(z)) - half.log_h_at(x)
            if math.isfinite(other):
                gap = max(gap, abs(log_u[i, j] - other))
    return ULimit(
        env=env,
        r=r,
        mode="window",
        sites=sites,
        log_u=log_u,
        n_used=full.level,
        m_used=m,
        cauchy_gap=gap,
        residual=math.nan,
    )


# ---------------------------------------------------------------------------
# Lyapunov exponents


@dataclass(frozen=True)
class LambdaSample:
    """One point of the Lyapunov curve with its convergence diagnostics."""

    r: float
    value: float
    converged: bool
    n_used: int
    m_used: int
    se: float  # sampling spread for window averages; 0 for periodic solves
    status: str = "ok"


def lyapunov(env: Environment, r: float, tol: float = 1e-10) -> LambdaSample:
    """Exponential growth rate per level of the right-passage MGF:
    `lyapunov_grid` at one tilt.

    Periodic environments average -log u(., +1) over one period, which is
    exact for the stabilized ratios. Window environments average over the
    window interior and report a standard error. Supercritical tilts yield
    +inf with converged=False.
    """
    return lyapunov_grid(env, (r,), tol=tol)[0]


def lyapunov_grid(env: Environment, rs, tol: float = 1e-10) -> list[LambdaSample]:
    """The growth rate at every tilt of rs.

    Periodic environments take their ratios from `_periodic_limits`, whose
    B >= 2 roots run as the jobs of one `lockstep`; sampled windows take
    `u_limit` tilt by tilt. A supercritical tilt gives +inf; any other error
    is raised at the first tilt that meets it, as a loop over the tilts
    would raise it.
    """
    return _raise_first(_lyapunov_samples(env, rs, tol))


def _lyapunov_samples(env: Environment, rs, tol: float = 1e-10, directions=(1,)) -> list:
    """`lyapunov_grid` in every direction of directions (1: lambda, -1:
    lambda_bar), r by r as `_periodic_limits` orders them, with the
    RwreError of a failing (tilt, direction) in its entry. A sampled
    window's left rate is the right rate of its reflection."""
    rs = list(rs)
    if env.kind in ("homogeneous", "periodic"):
        limits = _periodic_limits(env, rs, directions)
    else:
        sides = {d: env if d > 0 else reflect(env) for d in directions}
        limits = [_caught(u_limit, sides[d], r, tol=tol) for r in rs for d in directions]
    out: list = []
    for r, ul in zip([r for r in rs for _ in directions], limits):
        if isinstance(ul, SupercriticalError):
            out.append(LambdaSample(
                r=r, value=math.inf, converged=False, n_used=0, m_used=0, se=math.nan,
                status="supercritical",
            ))
            continue
        if isinstance(ul, RwreError):
            out.append(ul)
            continue
        la = ul.log_a
        if ul.mode == "periodic-exact":
            converged, se = ul.residual <= max(1e-12, tol), 0.0
        else:
            converged = ul.cauchy_gap <= max(tol, 1e-3)
            se = float(np.std(la) / math.sqrt(len(la))) if len(la) > 1 else math.nan
        out.append(LambdaSample(
            r=r, value=float(-np.mean(la)), converged=converged, n_used=ul.n_used,
            m_used=ul.m_used, se=se,
        ))
    return out


def lyapunov_bar(env: Environment, r: float, tol: float = 1e-10) -> LambdaSample:
    """Left-passage growth rate: `_lyapunov_samples` at one tilt, to the
    left; for B >= 2 periodic laws, s_- for the smaller root of
    Lambda(s) = -r."""
    return _raise_first(_lyapunov_samples(env, (r,), tol, (-1,)))[0]


@dataclass(frozen=True)
class LambdaPrime:
    """Slope of the Lyapunov curve, with its finite-difference check."""

    r: float
    value: float
    fd_value: float


# half-width of the slope stencil r +- h, and the relative gap it may
# leave to the chain's slope
_FD_STEP = 1e-5
_FD_GATE = 1e-4


def lyapunov_prime(env: Environment, r: float, speed: float) -> LambdaPrime:
    """d lambda / d r at a subcritical tilt of a periodic environment.

    The value is 1/speed, the reciprocal of the tilted chain's stationary
    speed at r (`tilt.stationary_speed`). A central finite difference of
    the Lyapunov curve, its two tilts solved as one `lyapunov_grid`, checks
    it: the two must agree within `_FD_GATE` (relative), and the slope is
    always >= 1/B.
    """
    lo, hi = lyapunov_grid(env, (r - _FD_STEP, r + _FD_STEP))
    if not (math.isfinite(lo.value) and math.isfinite(hi.value)):
        raise SupercriticalError("finite-difference stencil crosses the critical tilt", r=r)
    fd = (hi.value - lo.value) / (2 * _FD_STEP)
    value = 1.0 / speed
    if abs(fd - value) > _FD_GATE * max(1.0, abs(value)):
        raise DriftMismatchError(
            f"slope methods disagree: fd={fd!r} chain={value!r}", drift=speed,
            reciprocal_slope=1.0 / fd,
        )
    if value < 1.0 / env.b - 1e-9:
        raise SlowConvergenceError(
            f"slope {value} below its floor 1/B={1.0 / env.b}",
            diagnostics={"fd": fd, "chain": value},
        )
    return LambdaPrime(r=r, value=value, fd_value=fd)


# ---------------------------------------------------------------------------
# criticality


@dataclass(frozen=True)
class RcEstimate:
    """Two-sided bracket for the largest tilt with finite MGF growth. A
    periodic law's reflection has Lambda(-s) for its Lambda, so the same
    threshold serves both passage directions; a sampled window's reflection
    is a box of its own, searched apart, whose bracket is
    `bracket_reflected`."""

    bracket: tuple[float, float]
    tol: float
    predicate: str  # "perron" | "window-box"
    evaluations: int
    argmin: tuple[float, float] | None = None  # perron: bracket of argmin Lambda
    argmin_slopes: tuple[float, float] | None = None  # perron: Lambda' at its ends
    bracket_reflected: tuple[float, float] | None = None  # window-box only

    @property
    def value(self) -> float:
        return 0.5 * (self.bracket[0] + self.bracket[1])

    @property
    def width(self) -> float:
        return self.bracket[1] - self.bracket[0]


def _subcritical_predicate(env: Environment):
    """Callable r -> bool for sampled windows: True when the box solve
    stays finite."""
    lo, hi = env.window

    def pred(r: float) -> bool:
        sol = hit_mgf(env, r, level=hi + 1, m_trunc=-lo, tol=1e-10)
        return sol.status != "supercritical-or-diverged"

    return pred


def _bisect_rc(env: Environment, tol: float) -> tuple[tuple[float, float], int]:
    pred = _subcritical_predicate(env)
    lo = -1e-9  # finite growth is guaranteed at r <= 0
    hi = -math.log(env.delta) + 1e-9
    evals = 0
    if not pred(lo):
        return (lo, lo), 1
    if pred(hi):
        return (hi, hi), 2
    evals = 2
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        evals += 1
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return (lo, hi), evals


def estimate_rc(env: Environment, tol: float | None = None) -> RcEstimate:
    """Bracket the critical tilt r_c = -min_s Lambda(s).

    Periodic and homogeneous environments run the drift-root search at
    xi = 0 (`_slope_root_steps`), stopped once its bracket on min Lambda is
    at most tol wide; r_c = I(0) is then bracketed by (-least, -crossing),
    and 0.0 - x keeps a zero threshold from printing as -0. The reflection
    has the same Lambda, mirrored, so this is its threshold too. Sampled
    windows bisect between 0 and -log(delta) on box divergence, whose
    bracket carries a small upward bias from the finite box (widen the
    window to shrink it); the same bisection runs on the reflected window,
    and the two midpoints estimate the same threshold.
    """
    if env.kind in ("homogeneous", "periodic"):
        if tol is None:
            tol = 1e-6
        (found,) = _raise_first(lockstep([(env, _slope_root_steps(0.0, tol))]))
        return RcEstimate(
            bracket=(0.0 - found.least, 0.0 - found.crossing),
            tol=tol,
            predicate="perron",
            evaluations=found.evaluations,
            argmin=(found.below.s, found.above.s),
            argmin_slopes=(found.below.slope, found.above.slope),
        )
    if tol is None:
        tol = 1e-3
    bracket, e1 = _bisect_rc(env, tol)
    bracket_bar, e2 = _bisect_rc(reflect(env), tol)
    return RcEstimate(
        bracket=bracket,
        tol=tol,
        predicate="window-box",
        evaluations=e1 + e2,
        bracket_reflected=bracket_bar,
    )


# ---------------------------------------------------------------------------
# homogeneous characteristic polynomial


@dataclass(frozen=True, eq=False)
class CharPolyResult:
    """Positive roots of the homogeneous transfer polynomial
    sum_z p(z) e^r x^{z+B} - x^B and the growth rates they encode."""

    r: float
    coefficients: np.ndarray  # degree 2B, index k holds the x^k coefficient
    positive_roots: tuple[float, ...]
    x_right: float | None  # root > 1: right-passage rate is -log x_right
    x_left: float | None  # root < 1: left-passage rate is +log x_left
    residuals: tuple[float, ...]

    @property
    def lambda_right(self) -> float:
        return -math.log(self.x_right) if self.x_right else math.inf

    @property
    def lambda_left(self) -> float:
        return math.log(self.x_left) if self.x_left else math.inf


def _poly_eval(coeff: np.ndarray, x: float) -> float:
    # Horner on a scaled argument keeps the scan stable for x up to 2/(delta e^r)
    acc = 0.0
    for c in coeff[::-1]:
        acc = acc * x + c
    return acc


def char_poly_roots(env: Environment, r: float) -> CharPolyResult:
    """Bracketed root scan of the homogeneous transfer polynomial, r < 0.

    The coefficient list has exactly two sign changes, and the polynomial is
    positive near 0 and at infinity and e^r - 1 < 0 at 1, so it has exactly
    two positive roots, one on each side of 1. The scan uses no growth rate
    of the package, so it checks both directions independently.
    """
    if env.kind != "homogeneous":
        raise ValueError("characteristic polynomial applies to homogeneous environments")
    if r >= 0:
        raise ValueError("root scan requires r < 0")
    b = env.b
    law = env.laws[0]
    coeff = np.zeros(2 * b + 1)
    for z, p in law.probs:
        coeff[z + b] = p * math.exp(r)
    coeff[b] -= 1.0
    eps = env.delta * math.exp(r)
    x_max = 2.0 / eps
    x_min = 0.5 * eps
    grid = np.geomspace(x_min, x_max, 4096)
    vals = np.array([_poly_eval(coeff, x) for x in grid])
    roots = []
    for i in range(len(grid) - 1):
        a, bb = grid[i], grid[i + 1]
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append(float(a))
            continue
        if fa * fb < 0:
            for _ in range(200):
                m = 0.5 * (a + bb)
                fm = _poly_eval(coeff, m)
                if fm == 0.0:
                    break
                if fa * fm < 0:
                    bb, fb = m, fm
                else:
                    a, fa = m, fm
                if bb - a <= 1e-16 * max(1.0, abs(m)):
                    break
            roots.append(0.5 * (a + bb))
    roots = sorted(set(roots))
    right = [x for x in roots if x > 1.0 + 1e-12]
    left = [x for x in roots if x < 1.0 - 1e-12]
    res = tuple(abs(_poly_eval(coeff, x)) for x in roots)
    return CharPolyResult(
        r=r,
        coefficients=coeff,
        positive_roots=tuple(roots),
        x_right=right[0] if right else None,
        x_left=left[-1] if left else None,
        residuals=res,
    )


# ---------------------------------------------------------------------------
# curve assembly


@dataclass(frozen=True, eq=False)
class LambdaCurve:
    """Lyapunov curve samples on an r grid, both passage directions."""

    env: Environment
    samples: tuple[LambdaSample, ...]
    samples_bar: tuple[LambdaSample, ...]
    rc: RcEstimate
    monotone_ok: bool
    convex_ok: bool
    bound_ok: bool

    def rows(self):
        """(r, lambda, lambda_bar, converged, n_used, m_used) per grid point."""
        out = []
        for s, sb in zip(self.samples, self.samples_bar):
            out.append(
                (
                    s.r,
                    s.value,
                    sb.value,
                    s.converged and sb.converged,
                    max(s.n_used, sb.n_used),
                    max(s.m_used, sb.m_used),
                )
            )
        return out


def lambda_curve(
    env: Environment,
    r_grid,
    tol: float = 1e-10,
    rc_tol: float | None = None,
) -> LambdaCurve:
    """Sample both Lyapunov exponents on a grid and attach diagnostics.

    Both directions come from one `_lyapunov_samples` call. Checks along
    the way: lambda is nondecreasing and convex on the finite part of the
    grid, and never exceeds -log(delta e^r).
    """
    rs = [float(r) for r in r_grid]
    both = _raise_first(_lyapunov_samples(env, rs, tol, (1, -1)))
    samples, samples_bar = tuple(both[::2]), tuple(both[1::2])
    vals = [s.value for s in samples]
    fin = [(r, v) for r, v in zip(rs, vals) if math.isfinite(v)]
    monotone = all(v2 >= v1 - 1e-9 for (_, v1), (_, v2) in zip(fin, fin[1:]))
    convex = True
    for (r0, v0), (r1, v1), (r2, v2) in zip(fin, fin[1:], fin[2:]):
        # second difference on a possibly uneven grid
        s01 = (v1 - v0) / (r1 - r0)
        s12 = (v2 - v1) / (r2 - r1)
        if s12 < s01 - 1e-8:
            convex = False
    bound = all(
        v <= -(math.log(env.delta) + r) + 1e-9 for (r, v) in fin
    )
    rc = estimate_rc(env, tol=rc_tol)
    return LambdaCurve(
        env=env,
        samples=samples,
        samples_bar=samples_bar,
        rc=rc,
        monotone_ok=monotone,
        convex_ok=convex,
        bound_ok=bound,
    )
