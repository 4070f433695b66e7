"""The stacked Perron core against the single-tilt evaluator it replaced.

`single_tilt_log_perron` below is that evaluator, kept verbatim as the
oracle: one dense K_s, one eigvals call and one bordered solve per tilt.
Every point of `passage.perron_stack` must equal it to the last bit, in
value, slope, bracket and Perron vector, whatever else its stack holds and
however the stack is cut, and must fail where it fails, with the same
message and diagnostics.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from rwre_ldp import passage
from rwre_ldp.environment import (
    JumpLaw,
    homogeneous,
    offsets,
    periodic,
    sample_iid,
)
from rwre_ldp.errors import SlowConvergenceError
from rwre_ldp.passage import PerronPoint, log_perron, perron_stack

from .refusing_lapack import RefusingLapack, refusing, system_of
from .strategies import environments, examples

B2_NO_MINUS2 = periodic(
    [
        JumpLaw(b=2, probs=((-2, 0.1), (-1, 0.3), (1, 0.3), (2, 0.3))),
        JumpLaw(b=2, probs=((-2, 0.2), (-1, 0.3), (1, 0.25), (2, 0.25))),
        JumpLaw(b=2, probs=((-1, 0.35), (1, 0.35), (2, 0.3))),
    ]
)
DRIFT2 = homogeneous(JumpLaw(b=2, probs=((-2, 0.1), (-1, 0.2), (1, 0.3), (2, 0.4))))
# at s = 0.5 and s = 1.0 class 0 holds under 1/8 of the largest stationary
# weight of the tilted chain, so those two tilts are solved on a second border
SKEWED = periodic(
    [
        JumpLaw(b=1, probs=((-1, 0.98), (1, 0.02))),
        JumpLaw(b=1, probs=((-1, 0.135), (1, 0.865))),
        JumpLaw(b=1, probs=((-1, 0.944), (1, 0.056))),
    ]
)


# ---------------------------------------------------------------------------
# the oracle: the single-tilt evaluator, as it was before stacking

_BORDER_SLACK = 8.0


def _single_class_cycle(env, rows):
    L = len(rows)
    flat = env.cycle_index
    return np.bincount(flat, weights=rows.T.ravel(), minlength=L * L).reshape(L, L)


def _single_bordered_solve(K, rho, k, s):
    L = len(K)
    M = np.empty((2, L, L))
    np.negative(K, out=M[0])
    M[0].reshape(-1)[:: L + 1] += rho
    M[1] = M[0].T
    M[:, k] = 1.0
    rhs = np.zeros((2, L, 1))
    rhs[:, k] = 1.0
    try:
        return np.linalg.solve(M, rhs)[..., 0]
    except np.linalg.LinAlgError as e:
        raise SlowConvergenceError(
            f"bordered Perron-vector solve failed at s={s}",
            diagnostics={"s": s, "linalg": str(e)},
        ) from None


def _single_perron_vectors(K, rho, s):
    if len(K) == 1:
        return np.ones(1), np.ones(1)
    phi, left = _single_bordered_solve(K, rho, 0, s)
    weight = phi * left
    k = int(weight.argmax())
    if weight[k] > _BORDER_SLACK * weight[0]:
        phi, left = _single_bordered_solve(K, rho, k, s)
    return phi, left


def single_tilt_log_perron(env, s):
    offs = offsets(env.b)
    probs = env.probs
    L = len(probs)
    shift = abs(s) * env.b
    rows = probs * np.exp(s * offs - shift)
    K = _single_class_cycle(env, rows)
    if L == 1:
        top = K[0, 0]
    else:
        try:
            eig = np.linalg.eigvals(K)
        except np.linalg.LinAlgError as e:
            raise SlowConvergenceError(
                f"eigen-solve of K_s failed at s={s}", diagnostics={"s": s, "linalg": str(e)}
            ) from None
        top = eig[eig.real.argmax()]
    rho = float(top.real)
    if top.imag != 0.0 or not (math.isfinite(rho) and rho > 0.0):
        raise SlowConvergenceError(
            f"no finite positive real Perron root of K_s at s={s}",
            diagnostics={"s": s, "eigenvalue": [rho, float(top.imag)]},
        )
    phi, left = _single_perron_vectors(K, rho, s)
    if not phi.min() > 0.0:
        raise SlowConvergenceError(
            f"Perron vector of K_s not positive at s={s}",
            diagnostics={"s": s, "min": float(phi.min())},
        )
    terms = rows * phi[env.targets]
    quot = terms.sum(axis=1) / phi
    value = math.log(rho) + shift
    return PerronPoint(
        s=s,
        value=value,
        slope=float(left @ (terms @ offs)) / (rho * float(left @ phi)),
        right=phi,
        bracket=(value + math.log(quot.min() / rho), value + math.log(quot.max() / rho)),
    )


# ---------------------------------------------------------------------------


def bits(pt: PerronPoint):
    """Every float of a point, sign of zero included, and the vector's bytes."""
    return (
        pt.s.hex(), pt.value.hex(), pt.slope.hex(), pt.bracket[0].hex(), pt.bracket[1].hex(),
        pt.right.tobytes(),
    )


def assert_matches_oracle(env, s, got):
    try:
        want = single_tilt_log_perron(env, s)
    except SlowConvergenceError as e:
        assert isinstance(got, SlowConvergenceError), (s, got)
        assert str(got) == str(e)
        assert repr(got.diagnostics) == repr(e.diagnostics)
        return
    assert isinstance(got, PerronPoint), (s, got)
    assert bits(got) == bits(want), s


class TestAgainstTheSingleTiltOracle:
    @settings(max_examples=examples(60), deadline=None)
    @given(
        environments(max_b=3, max_period=64),
        st.integers(1, 4),
        st.data(),
    )
    def test_every_point_of_every_stack(self, env, per, data):
        # a budget of `per` tilts per stack, and stacks of 1 up to one past it,
        # so that some calls are cut into several stacks
        ss = data.draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=per + 1))
        with mock.patch.object(passage, "_STACK_BUDGET", per * env.period ** 2):
            got = perron_stack(env, ss)
        assert len(got) == len(ss)
        for s, pt in zip(ss, got):
            assert_matches_oracle(env, s, pt)

    def test_a_rate_grid_sized_stack_at_the_real_budget(self):
        ss = [float(s) for s in np.linspace(-3.0, 3.0, 21)]
        for env in (B2_NO_MINUS2, DRIFT2):
            for s, pt in zip(ss, perron_stack(env, ss)):
                assert_matches_oracle(env, s, pt)

    def test_long_period_falls_back_to_short_stacks(self):
        laws = [
            JumpLaw(b=1, probs=((-1, 0.3 + 0.01 * (i % 7)), (1, 0.7 - 0.01 * (i % 7))))
            for i in range(200)
        ]
        env = periodic(laws)
        assert passage._STACK_BUDGET // env.period ** 2 == 0
        ss = [-0.4, 0.1, 0.9]
        calls = []

        class Counted(RefusingLapack):
            def eigvals(self, a, signature):
                calls.append(a.shape)
                return super().eigvals(a, signature)

        with mock.patch.object(passage, "_umath_linalg", Counted()):
            got = perron_stack(env, ss)
        assert calls == [(1, 200, 200)] * 3
        for s, pt in zip(ss, got):
            assert_matches_oracle(env, s, pt)

    def test_log_perron_is_the_one_point_stack(self):
        for s in (-2.5, -0.3, 0.0, 0.7, 2.9):
            assert bits(log_perron(B2_NO_MINUS2, s)) == bits(single_tilt_log_perron(B2_NO_MINUS2, s))


def _cycle(env, s):
    """K_s as the core builds it, to recognise one tilt's matrix in a stack."""
    offs = offsets(env.b)
    return _single_class_cycle(env, env.probs * np.exp(s * offs - abs(s) * env.b))


def assert_refused(pt, s, what, linalg):
    assert isinstance(pt, SlowConvergenceError), (s, pt)
    assert str(pt) == f"{what} at s={s}"
    assert pt.diagnostics == {"s": s, "linalg": linalg}


def test_a_refused_matrix_leaves_nan_in_its_own_output_only():
    """The gufunc behaviour the core reads refusals by."""
    rng = np.random.default_rng(4)
    a = rng.random((3, 4, 4))
    a[1, 2] = a[1, 0]  # singular
    b = rng.random((3, 4, 1))
    with np.errstate(all="ignore"):
        x = _umath_linalg.solve(a, b, signature="dd->d")
    assert np.isnan(x[1]).all() and not np.isnan(x[[0, 2]]).any()
    for j in (0, 2):
        assert x[j].tobytes() == np.linalg.solve(a[j], b[j]).tobytes()


class TestRefusedMatrices:
    """LAPACK refuses one matrix of a stack: its tilt fails with numpy's
    message, and the other points keep their values."""

    SS = [-1.2, 0.35, 0.8, 1.7]
    BAD = 0.8

    def test_eigen_solve_refused_for_one_tilt(self):
        bad = _cycle(B2_NO_MINUS2, self.BAD)
        with refusing(eig=lambda K: np.array_equal(K, bad)):
            got = perron_stack(B2_NO_MINUS2, self.SS)
        for s, pt in zip(self.SS, got):
            if s == self.BAD:
                assert_refused(pt, s, "eigen-solve of K_s failed", "Eigenvalues did not converge")
            else:
                assert_matches_oracle(B2_NO_MINUS2, s, pt)

    @pytest.mark.parametrize("side", [0, 1])
    def test_bordered_solve_refused_for_one_tilt(self, side):
        with refusing(solve=system_of(_cycle(B2_NO_MINUS2, self.BAD)), side=side):
            got = perron_stack(B2_NO_MINUS2, self.SS)
        for s, pt in zip(self.SS, got):
            if s == self.BAD:
                assert_refused(pt, s, "bordered Perron-vector solve failed", "Singular matrix")
            else:
                assert_matches_oracle(B2_NO_MINUS2, s, pt)

    @pytest.mark.parametrize("ss", [[-1.0, 1.0, 1.5], [-1.0, 0.5, 1.0, 1.5], [1.0]])
    def test_second_border_solve_refused_for_one_tilt(self, ss):
        # only the second solve of s = 1.0 is refused; in the first stack it
        # is the one tilt that needs one, in the second s = 0.5 needs one too
        bad = system_of(_cycle(SKEWED, 1.0))
        refused = []

        def second_border_of_bad(M, k):
            hit = k != 0 and bad(M, k)
            refused.append(hit)
            return hit

        with refusing(solve=second_border_of_bad):
            got = perron_stack(SKEWED, ss)
        assert refused.count(True) == 1
        assert len(got) == len(ss)
        for s, pt in zip(ss, got):
            if s == 1.0:
                assert_refused(pt, s, "bordered Perron-vector solve failed", "Singular matrix")
            else:
                assert_matches_oracle(SKEWED, s, pt)

    def test_skewed_tilts_do_take_a_second_border(self):
        borders = []
        real = passage._bordered_solve

        def spy(K, rho, border):
            borders.append(border.argmax(axis=1).tolist())
            return real(K, rho, border)

        with mock.patch.object(passage, "_bordered_solve", spy):
            perron_stack(SKEWED, [-1.0, 0.5, 1.0, 1.5])
        assert borders[0] == [0, 0, 0, 0]
        assert len(borders) == 2 and len(borders[1]) == 2 and 0 not in borders[1]

    @pytest.mark.parametrize("env", [B2_NO_MINUS2, DRIFT2])
    def test_non_finite_tilts_fail_alone(self, env):
        ss = [0.3, math.inf, -0.2, math.nan, -math.inf]
        with np.errstate(all="ignore"):  # the oracle's arithmetic on inf and nan
            got = perron_stack(env, ss)
            for s, pt in zip(ss, got):
                assert_matches_oracle(env, s, pt)


def _periodized_window(width: int):
    """A sampled two-atom iid window of `width` sites around the origin as
    one period: class c takes the law of the window's site x = c mod width."""
    lo = -(width // 2)
    window = sample_iid([(0.5, JumpLaw(b=1, probs=((-1, 0.3), (1, 0.7)))),
                         (0.5, JumpLaw(b=1, probs=((-1, 0.6), (1, 0.4))))],
                        lo, lo + width - 1, seed=7)
    return periodic([window.laws[(c - lo) % width] for c in range(width)])


def test_long_period_points_are_certified_or_refused():
    # at L = 601 the Perron vector spans about 13 decades near the
    # minimiser, past what the dense bordered solve resolves: with
    # reference LAPACK s = -0.14 is refused and s = -0.16 comes back with a
    # Collatz-Wielandt width of 1e-4. Whatever the LAPACK, no point may come
    # back with a vector that is not positive or a bracket missing its value
    ss = [-0.16, -0.14]
    for s, pt in zip(ss, perron_stack(_periodized_window(601), ss)):
        if isinstance(pt, SlowConvergenceError):
            assert pt.diagnostics["s"] == s and f"s={s}" in str(pt)
        else:
            assert isinstance(pt, PerronPoint) and pt.s == s
            assert (pt.right > 0.0).all()
            assert pt.bracket[0] <= pt.value <= pt.bracket[1]
