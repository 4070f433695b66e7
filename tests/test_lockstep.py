"""Searches over Lambda driven by `passage.lockstep` against the serial
loops they replaced.

`serial_perron_root` and `serial_perron_min` below are those loops, kept
verbatim as oracles: one `log_perron` call per tilt. A driven search must
ask for the same tilts in the same order and reach the same result to the
last bit, or fail with the same error, whatever other jobs share its
rounds.
"""

import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwre_ldp import passage
from rwre_ldp.environment import reflect
from rwre_ldp.errors import RwreError, SlowConvergenceError, SupercriticalError
from rwre_ldp.passage import PerronPoint, _class_mean_start, estimate_rc, lockstep, log_perron
from rwre_ldp.rate import _slope_root_steps

from .refusing_lapack import refusing
from .strategies import environments
from .test_perron_stack import B2_NO_MINUS2, _cycle, bits

# ---------------------------------------------------------------------------
# the oracles: the serial searches, as they were before `lockstep`


def serial_perron_root(env, r: float) -> PerronPoint:
    safe = 1.0 - math.log(env.delta) - r
    s = _class_mean_start(env, r, safe)
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


@settings(max_examples=30, deadline=None)
@given(
    environments(max_b=3, max_period=64),
    st.floats(-3.0, 1.0),
    st.sampled_from([1e-4, 1e-8, 1e-11]),
)
def test_driven_searches_match_the_serial_oracles(env, r, tol):
    bar = reflect(env)
    cases = [  # (environment, search, its serial oracle, the oracle's argument)
        (env, passage._perron_root, serial_perron_root, r),
        (bar, passage._perron_root, serial_perron_root, r),
        (env, passage._perron_min, serial_perron_min, tol),
        (bar, passage._perron_min, serial_perron_min, tol),
    ]
    solo = []
    for e, search, oracle, arg in cases:
        want, want_asked = serial(oracle, e, arg)
        got, got_asked = driven(e, search(e, arg))
        assert hexes(got_asked) == hexes(want_asked)
        if oracle is serial_perron_min and not isinstance(got, RwreError):
            bracket, argmin, slopes, evals = got
            assert key((bracket, argmin, evals)) == key(want)
            # the slopes xi_critical used to evaluate again at the argmin ends
            assert key(slopes) == key(tuple(log_perron(e, s).slope for s in argmin))
        else:
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
    (bracket, argmin, slopes, e1), (bracket_bar, _, _, e2) = solo[2:]
    assert key(rc.bracket) == key(bracket) and key(rc.bracket_reflected) == key(bracket_bar)
    assert key(rc.argmin) == key(argmin) and key(rc.argmin_slopes) == key(slopes)
    assert rc.evaluations == e1 + e2


def test_a_refused_tilt_fails_only_its_own_job():
    env, bar = B2_NO_MINUS2, reflect(B2_NO_MINUS2)
    makers = [
        (env, lambda: passage._perron_min(env, 1e-10)),
        (bar, lambda: passage._perron_min(bar, 1e-10)),
        (env, lambda: passage._perron_root(env, -0.4)),
        (bar, lambda: passage._perron_root(bar, -0.4)),
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
