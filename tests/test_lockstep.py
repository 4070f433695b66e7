"""Searches over Lambda driven by `passage.lockstep` against the serial
loops they replaced.

`serial_perron_root` below is such a loop, kept verbatim as an oracle: one
`log_perron` call per tilt; `serial_lyapunov` is `lyapunov` as it was
before Lyapunov grids ran in lockstep. A driven search must ask for the
same tilts in the same order and reach the same result to the last bit, or
fail with the same error, whatever other jobs share its rounds; the r_c
search (the drift-root search at xi = 0) is held to its own serial drive.
`serial_perron_min`, the bisection on the sign of Lambda' that bracketed
r_c before, stays as the r_c search's independent oracle.
"""

import dataclasses
import importlib
import math
import pkgutil
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre_ldp import passage
from rwre_ldp.environment import JumpLaw, offsets, periodic, reflect
from rwre_ldp.errors import RwreError, SlowConvergenceError, SupercriticalError
from rwre_ldp.passage import (
    LambdaSample,
    PerronPoint,
    _lyapunov_samples,
    _slope_root_steps,
    estimate_rc,
    lockstep,
    log_perron,
    lyapunov,
    lyapunov_grid,
    u_limit,
)
from rwre_ldp.rate import asymmetry_demo, rate

from .refusing_lapack import refusing
from .strategies import environments, examples
from .test_perron_stack import B2_NO_MINUS2, _cycle, bits

# ---------------------------------------------------------------------------
# the oracles: the serial searches, as they were before `lockstep`


def class_mean_start(env, r: float, safe: float) -> float:
    """`passage._class_mean_starts` at one tilt, as the scalar loop it was:
    the reference its stacked pass must match to the last bit."""
    offs = offsets(env.b).astype(float)
    probs = env.probs
    L = len(probs)
    s = safe
    for _ in range(8):
        terms = probs * np.exp(s * offs)
        g = terms.sum(axis=1)
        slope = float(((terms @ offs) / g).sum()) / L
        if slope <= 0.0:
            return safe
        s -= (float(np.log(g).sum()) / L + r) / slope
    return s


def perron_root(env, r: float):
    """`passage._perron_root` from its class-mean start, as
    `_periodic_limits` runs it."""
    return passage._perron_root(env, r, passage._class_mean_starts(env, [r])[0])


def serial_perron_root(env, r: float) -> PerronPoint:
    safe = 1.0 - math.log(env.delta) - r
    s = class_mean_start(env, r, safe)
    pt = log_perron(env, s)
    if pt.slope <= 0.0 and s < safe:
        s = safe
        pt = log_perron(env, s)
    right_of_root = False
    for _ in range(200):  # linear near r_c, where it takes about 25 steps
        f = pt.value + r
        if f <= 0.0 and right_of_root:
            return pt  # reached, or overshot by rounding
        if pt.slope <= 0.0:
            raise SupercriticalError(
                "no root of log rho(K_s) = -r: the tilt exceeds the threshold",
                r=r,
                diagnostics={"s": s, "min_log_rho_upper": pt.value},
            )
        step = f / pt.slope
        if 0.0 <= step <= 4e-16 * max(1.0, abs(s)):
            return pt
        right_of_root = True
        s -= step
        pt = log_perron(env, s)
    raise SlowConvergenceError(
        f"Newton on log rho(K_s) = -r did not settle at r={r}",
        diagnostics={"s": s, "residual": f},
    )


def serial_perron_min(env, tol: float):
    def tangent_floor(pa: PerronPoint, pb: PerronPoint) -> float:
        if pa.slope >= 0.0:
            return pa.value
        if pb.slope <= 0.0:
            return pb.value
        x = (pb.value - pa.value + pa.slope * pa.s - pb.slope * pb.s) / (pa.slope - pb.slope)
        return pa.value + pa.slope * (x - pa.s)

    p0 = log_perron(env, 0.0)
    if p0.slope == 0.0:
        return (0.0 - p0.value, 0.0 - p0.value), (0.0, 0.0), 1
    evals = 1
    # Lambda(s) >= log(delta) + |s| and Lambda(0) = 0 put the minimiser
    # between 0 and log(delta) on the side against the drift
    edge = log_perron(env, math.log(env.delta) if p0.slope > 0 else -math.log(env.delta))
    evals += 1
    pa, pb = (edge, p0) if p0.slope > 0 else (p0, edge)
    best = min(pa.value, pb.value)
    lower = tangent_floor(pa, pb)
    while best - lower > tol and pb.s - pa.s > 4e-16 * max(1.0, abs(pa.s)):
        pm = log_perron(env, 0.5 * (pa.s + pb.s))
        evals += 1
        best = min(best, pm.value)
        if pm.slope == 0.0:
            pa = pb = pm
        elif pm.slope < 0.0:
            pa = pm
        else:
            pb = pm
        lower = min(best, tangent_floor(pa, pb))
    return (0.0 - best, 0.0 - lower), (pa.s, pb.s), evals


def rc_search(env, tol: float):
    """The r_c search: the drift-root search at xi = 0, stopped at tol."""
    return _slope_root_steps(0.0, tol)


def serial_rc_search(env, tol: float):
    """`rc_search` driven serially, one `log_perron` call per tilt."""
    search = rc_search(env, tol)
    try:
        s = next(search)
        while True:
            try:
                pt = log_perron(env, s)
            except RwreError as e:
                s = search.throw(e)
            else:
                s = search.send(pt)
    except StopIteration as stop:
        return stop.value


# ---------------------------------------------------------------------------


def serial(oracle, env, arg):
    """oracle(env, arg) with the tilts it evaluated; an error it raises is
    returned in place of its result."""
    asked = []

    def recorded(e, s):
        asked.append(s)
        return passage.log_perron(e, s)

    with mock.patch.object(sys.modules[__name__], "log_perron", recorded):
        try:
            out = oracle(env, arg)
        except RwreError as e:
            out = e
    return out, asked


def driven(env, search):
    """search run alone on `lockstep`, with the tilts it asked for."""
    asked = []
    real = passage.perron_stack

    def recorded(e, ss):
        asked.extend(ss)
        return real(e, ss)

    with mock.patch.object(passage, "perron_stack", recorded):
        out = lockstep([(env, search)])[0]
    return out, asked


def key(x):
    """A result in comparable form: floats by their hex form, points by
    their bits, errors by type, message and diagnostics."""
    if isinstance(x, RwreError):
        return type(x).__name__, str(x), repr(getattr(x, "diagnostics", None))
    if isinstance(x, PerronPoint):
        return bits(x)
    if isinstance(x, tuple):
        return tuple(key(v) for v in x)
    return x.hex() if isinstance(x, float) else x


def hexes(ss):
    return [s.hex() for s in ss]


@settings(max_examples=examples(30), deadline=None)
@given(
    environments(max_b=3, max_period=64),
    st.floats(-3.0, 1.0),
    st.sampled_from([1e-4, 1e-8, 1e-11]),
)
def test_driven_searches_match_the_serial_oracles(env, r, tol):
    bar = reflect(env)
    cases = [  # (environment, search, its serial oracle, the oracle's argument)
        (env, perron_root, serial_perron_root, r),
        (bar, perron_root, serial_perron_root, r),
        (env, rc_search, serial_rc_search, tol),
        (bar, rc_search, serial_rc_search, tol),
    ]
    solo = []
    for e, search, oracle, arg in cases:
        want, want_asked = serial(oracle, e, arg)
        got, got_asked = driven(e, search(e, arg))
        assert hexes(got_asked) == hexes(want_asked)
        assert key(got) == key(want)
        solo.append(got)
    # all four in one lockstep: every job reaches its solo result
    together = lockstep([(e, search(e, arg)) for e, search, _, arg in cases])
    assert [key(x) for x in together] == [key(x) for x in solo]

    failed = [x for x in solo[2:] if isinstance(x, RwreError)]
    if failed:
        with pytest.raises(RwreError) as exc:
            estimate_rc(env, tol=tol)
        assert key(exc.value) == key(failed[0])
        return
    rc = estimate_rc(env, tol=tol)
    fwd, back = solo[2:]
    assert key(rc.bracket) == key((0.0 - fwd.least, 0.0 - fwd.crossing))
    assert key(rc.bracket_reflected) == key((0.0 - back.least, 0.0 - back.crossing))
    assert key(rc.argmin) == key((fwd.below.s, fwd.above.s))
    assert key(rc.argmin_slopes) == key((fwd.below.slope, fwd.above.slope))
    assert rc.evaluations == fwd.evaluations + back.evaluations
    # the reflected environment's estimate is this one, read the other way
    assert key(dataclasses.astuple(rc.reflected())) == key(
        dataclasses.astuple(estimate_rc(bar, tol=tol))
    )


@settings(max_examples=examples(30), deadline=None)
@given(environments(max_b=3, max_period=64), st.sampled_from([1e-4, 1e-8, 1e-12]))
def test_rc_search_against_the_bisection(env, tol):
    # Lambda(s) is known only to rounding, so two brackets on min Lambda,
    # each within rounding of it, may miss each other by a few 1e-17
    # (five fair laws: r_c = 0, brackets 3e-17 apart); 1e-14 is the slack
    # of the zero-speed rate below
    slack = 1e-14
    rc = estimate_rc(env, tol=tol)
    for (lo, hi), e in zip((rc.bracket, rc.bracket_reflected), (env, reflect(env))):
        bracket, _, _ = serial_perron_min(e, tol)
        assert hi - lo <= tol
        assert lo <= bracket[1] + slack and bracket[0] <= hi + slack
    # I(0) is r_c: the zero-speed rate lies in the bracket, up to rounding
    lo, hi = rc.bracket
    assert lo - slack <= rate(env, 0.0).value <= hi + slack


def test_rc_search_halves_the_bisection_evaluations():
    env, bar = B2_NO_MINUS2, reflect(B2_NO_MINUS2)
    bisection = sum(serial_perron_min(e, 1e-5)[2] for e in (env, bar))
    assert bisection == 22
    assert 2 * estimate_rc(env, tol=1e-5).evaluations <= bisection



# ---------------------------------------------------------------------------
# Lyapunov grids: one lockstep of Newton roots against the loop of lyapunov


def serial_lyapunov(env, r: float, tol: float) -> LambdaSample:
    """`lyapunov` as it was before `lyapunov_grid`: one `u_limit` call,
    whose B >= 2 ratios come from a Newton root of its own."""
    try:
        ul = u_limit(env, r, tol=tol)
    except SupercriticalError:
        return LambdaSample(
            r=r, value=math.inf, converged=False, n_used=0, m_used=0, se=math.nan,
            status="supercritical",
        )
    la = ul.log_a
    if ul.mode == "periodic-exact":
        return LambdaSample(
            r=r,
            value=float(-np.mean(la)),
            converged=ul.residual <= max(1e-12, tol),
            n_used=ul.n_used,
            m_used=ul.m_used,
            se=0.0,
        )
    se = float(np.std(la) / math.sqrt(len(la))) if len(la) > 1 else math.nan
    return LambdaSample(
        r=r,
        value=float(-np.mean(la)),
        converged=ul.cauchy_gap <= max(tol, 1e-3),
        n_used=ul.n_used,
        m_used=ul.m_used,
        se=se,
    )


def sample_key(x):
    return key(x) if isinstance(x, RwreError) else key(dataclasses.astuple(x))


def serial_samples(env, rs, tol):
    """The loop of `serial_lyapunov` over rs; the first error it raises is
    returned in place of the list."""
    try:
        return [serial_lyapunov(env, r, tol) for r in rs]
    except RwreError as e:
        return e


def limit_key(x):
    """A ULimit by its log_u bytes, residual and n_used; an error by key."""
    if isinstance(x, RwreError):
        return key(x)
    return x.log_u.tobytes(), x.residual.hex(), x.n_used


@settings(max_examples=examples(100), deadline=None)
@given(environments(max_b=3, max_period=64), st.lists(st.floats(-3.0, 1.0), max_size=8))
def test_class_mean_starts_match_the_scalar_loop(env, rs):
    # a tilt beyond r_c <= -log(delta) ends on its safe tilt
    rs = rs + [0.5 - math.log(env.delta)]
    for e in (env, reflect(env)):
        want = [class_mean_start(e, r, 1.0 - math.log(e.delta) - r) for r in rs]
        assert hexes(passage._class_mean_starts(e, rs)) == hexes(want)


def assert_limits_are_u_limit(env, rs, tol):
    """Entry m of `_periodic_limits(env, rs)` is `u_limit(env, rs[m])`, or
    the error it raises."""
    for r, entry in zip(rs, passage._periodic_limits(env, rs)):
        try:
            solo = u_limit(env, r, tol=tol)
        except RwreError as err:
            solo = err
        assert limit_key(entry) == limit_key(solo)


def test_package_keeps_no_memo():
    # a memo is allowed only where its contents cannot depend on what ran
    # before: the offsets per jump bound, and the r_c cache the benchmark's
    # tracer rebuilds around its wrapper; an environment's table is its own
    import rwre_ldp
    from rwre_ldp import environment, rate

    allowed = {id(environment.offsets), id(rate._rc_cached)}
    found = []
    for info in pkgutil.iter_modules(rwre_ldp.__path__):
        module = importlib.import_module(f"rwre_ldp.{info.name}")
        names = dict(vars(module))
        for cls_name, cls in vars(module).items():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                names.update((f"{cls_name}.{k}", v) for k, v in vars(cls).items())
        found += [f"{info.name}.{name}" for name, x in names.items()
                  if hasattr(x, "cache_info") and id(x) not in allowed]
    assert not found


@settings(max_examples=examples(30), deadline=None)
@given(
    environments(max_b=3, max_period=24).filter(lambda e: e.b >= 2),
    st.lists(st.floats(-3.0, 1.0), min_size=1, max_size=6),
    st.sampled_from([1e-12, 1e-10, 1e-6]),
)
def test_lyapunov_grid_matches_the_loop(env, rs, tol):
    rs = rs + [0.5 - math.log(env.delta)]  # beyond r_c <= -log(delta): supercritical
    for e in (env, reflect(env)):
        assert_limits_are_u_limit(e, rs, tol)
        want = serial_samples(e, rs, tol)
        try:
            got = lyapunov_grid(e, rs, tol=tol)
        except RwreError as err:
            got = err
        if isinstance(want, RwreError):
            assert sample_key(got) == sample_key(want)
        else:
            assert [sample_key(x) for x in got] == [sample_key(x) for x in want]
            assert got[-1].status == "supercritical"
            # lyapunov is the grid's one-point case
            solo = [lyapunov(e, r, tol=tol) for r in rs]
            assert [sample_key(x) for x in solo] == [sample_key(x) for x in want]


def test_unit_jump_grid_is_the_loop():
    # B = 1 keeps the zeta route, tilt by tilt
    env = periodic([JumpLaw(b=1, probs=((-1, 0.2), (1, 0.8))),
                    JumpLaw(b=1, probs=((-1, 0.6), (1, 0.4)))])
    rs = [-1.0, -0.3, 0.0, 3.0]
    for e in (env, reflect(env)):
        assert_limits_are_u_limit(e, rs, 1e-10)
        want = serial_samples(e, rs, 1e-10)
        got = lyapunov_grid(e, rs)
        assert [sample_key(x) for x in got] == [sample_key(x) for x in want]
        assert got[-1].status == "supercritical"


def _refused_newton_tilt(env, r):
    """The third tilt the Newton root of Lambda(s) = -r asks for on env, and
    a predicate refusing the eigen-solve of its K_s."""
    bad_s = driven(env, perron_root(env, r))[1][2]
    bad = _cycle(env, bad_s)
    return bad_s, lambda K: np.array_equal(K, bad)


def test_a_refused_tilt_fails_only_its_own_grid_point():
    env, rs = B2_NO_MINUS2, [-1.0, -0.4, -0.2, 2.0]
    want = [serial_lyapunov(env, r, 1e-10) for r in rs]
    assert want[-1].status == "supercritical"
    bad_s, refuse = _refused_newton_tilt(env, -0.4)
    with refusing(eig=refuse):
        got = _lyapunov_samples(env, rs, 1e-10)
        with pytest.raises(SlowConvergenceError) as exc:
            lyapunov_grid(env, rs)
    err = got[1]
    assert isinstance(err, SlowConvergenceError)
    assert str(err) == f"eigen-solve of K_s failed at s={bad_s}"
    assert key(exc.value) == key(err)
    for m in (0, 2, 3):
        assert sample_key(got[m]) == sample_key(want[m])


@pytest.mark.parametrize("r_env, r_bar, first", [
    (-0.2, -0.4, "bar"),  # a loop over the tilts meets lambda_bar(-0.4) first
    (-0.4, -0.4, "env"),  # and lambda(r) before lambda_bar(r)
])
def test_asymmetry_demo_raises_as_the_loop_over_tilts_would(r_env, r_bar, first):
    env, bar, rs = B2_NO_MINUS2, reflect(B2_NO_MINUS2), [-1.0, -0.4, -0.2]
    env_s, env_refuse = _refused_newton_tilt(env, r_env)
    bar_s, bar_refuse = _refused_newton_tilt(bar, r_bar)
    assert env_s != bar_s
    with refusing(eig=lambda K: env_refuse(K) or bar_refuse(K)):
        with pytest.raises(SlowConvergenceError) as exc:
            asymmetry_demo(env, rs)
    s = env_s if first == "env" else bar_s
    assert str(exc.value) == f"eigen-solve of K_s failed at s={s}"


def test_a_refused_tilt_fails_only_its_own_job():
    env, bar = B2_NO_MINUS2, reflect(B2_NO_MINUS2)
    makers = [
        (env, lambda: rc_search(env, 1e-10)),
        (bar, lambda: rc_search(bar, 1e-10)),
        (env, lambda: perron_root(env, -0.4)),
        (bar, lambda: perron_root(bar, -0.4)),
        (env, lambda: _slope_root_steps(0.2)),
        (bar, lambda: _slope_root_steps(0.3)),
    ]
    solo = [driven(e, make()) for e, make in makers]
    assert len({len(asked) for _, asked in solo}) > 2  # jobs of different lengths
    # refuse the third tilt of the Newton search on env
    bad_s = solo[2][1][2]
    bad = _cycle(env, bad_s)
    hits = []

    def refuse(K):
        hits.append(np.array_equal(K, bad))
        return hits[-1]

    with refusing(eig=refuse):
        got = lockstep([(e, make()) for e, make in makers])
    assert hits.count(True) == 1
    err = got[2]
    assert isinstance(err, SlowConvergenceError)
    assert str(err) == f"eigen-solve of K_s failed at s={bad_s}"
    assert err.diagnostics == {"s": bad_s, "linalg": "Eigenvalues did not converge"}
    for m, (want, _) in enumerate(solo):
        if m != 2:
            assert key(got[m]) == key(want), m
