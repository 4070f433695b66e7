"""A stand-in for the LAPACK gufuncs that `passage` calls, which refuses
chosen matrices.

When LAPACK refuses a matrix, a numpy.linalg gufunc fills that matrix's
output with NaN and computes the rest of its stack as usual; the stand-in
does the same to the matrices its predicates pick. `eig(K)` picks a
matrix of an eigvals stack; `solve(M, k)` picks a bordered pair
(`passage._bordered_solve`) by its right-hand system M and border class k,
and `side` says which of the two systems is refused: 0 the right one, 1
the transposed one.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
from numpy.linalg import _umath_linalg

from rwre_ldp import passage


class RefusingLapack:
    def __init__(self, eig=lambda K: False, solve=lambda M, k: False, side=0):
        self.eig, self.refuse_solve, self.side = eig, solve, side

    def eigvals(self, a, signature):
        w = _umath_linalg.eigvals(a, signature=signature)
        for idx in np.ndindex(a.shape[:-2]):
            if self.eig(a[idx]):
                w[idx] = np.nan
        return w

    def solve(self, a, b, signature):
        # a: (2, n, L, L), the right systems then the left ones; b: (n, L, 1), e_k
        x = _umath_linalg.solve(a, b, signature=signature)
        for j in range(a.shape[1]):
            if self.refuse_solve(a[0, j], int(b[j, :, 0].argmax())):
                x[self.side, j] = np.nan
        return x


@contextmanager
def refusing(eig=lambda K: False, solve=lambda M, k: False, side=0):
    with mock.patch.object(passage, "_umath_linalg", RefusingLapack(eig, solve, side)):
        yield


def system_of(K: np.ndarray):
    """A `solve` predicate picking the systems of (rho I - K): M matches K
    off the diagonal, outside its border row."""
    off = ~np.eye(len(K), dtype=bool)

    def match(M, k):
        rows = np.arange(len(K)) != k
        return np.array_equal(-M[rows][off[rows]], K[rows][off[rows]])

    return match
