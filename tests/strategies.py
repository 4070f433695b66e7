"""Shared hypothesis strategies: random jump laws and small environments.

Laws are built from integer weights so normalization is exact to float
round-off, and offsets +-1 always get positive weight.
"""

import os

from hypothesis import strategies as st

from rwre_ldp.environment import Environment, JumpLaw, periodic, sample_iid

# HYPOTHESIS_PROFILE=ci (tests/conftest.py) runs every property test on four
# times the examples it runs by default
_DEPTH = 4 if os.environ.get("HYPOTHESIS_PROFILE") == "ci" else 1


def examples(n: int) -> int:
    """`max_examples` of a property test that runs n examples by default."""
    return _DEPTH * n


@st.composite
def jump_laws(draw, max_b: int = 3, b: int | None = None) -> JumpLaw:
    if b is None:
        b = draw(st.integers(1, max_b))
    offs = [z for z in range(-b, b + 1) if z != 0]
    weights = {}
    for z in offs:
        if abs(z) == 1:
            weights[z] = draw(st.integers(1, 20))
        else:
            weights[z] = draw(st.integers(0, 20))
    total = sum(weights.values())
    probs = tuple((z, w / total) for z, w in sorted(weights.items()) if w)
    return JumpLaw(b=b, probs=probs)


@st.composite
def environments(draw, max_b: int = 2, max_period: int = 4) -> Environment:
    b = draw(st.integers(1, max_b))
    L = draw(st.integers(1, max_period))
    laws = [draw(jump_laws(b=b)) for _ in range(L)]
    if L == 1 and draw(st.booleans()):
        return Environment(kind="homogeneous", b=b, delta=_max_delta(laws), laws=tuple(laws))
    return periodic(laws)


@st.composite
def windows(draw, max_b: int = 2, max_atoms: int = 3) -> Environment:
    """A sampled window of a few to a few dozen sites around the origin."""
    b = draw(st.integers(1, max_b))
    atoms = [(draw(st.integers(1, 5)), draw(jump_laws(b=b)))
             for _ in range(draw(st.integers(1, max_atoms)))]
    lo, hi = draw(st.integers(-20, -1)), draw(st.integers(1, 20))
    return sample_iid(atoms, lo, hi, seed=draw(st.integers(0, 2**32 - 1)))


def _max_delta(laws) -> float:
    return min(min(l.prob(1), l.prob(-1)) for l in laws)
