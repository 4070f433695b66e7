"""Quenched large-deviation toolkit for 1D random walks in random environments.

The package computes passage-time Lyapunov exponents, tilted kernels and
their invariant densities, pair-empirical entropy minimizers, and the
position-level rate function for walks on the integers with bounded jumps
and uniformly elliptic unit steps.
"""

__version__ = "0.1.0"

from .environment import (
    Environment,
    JumpLaw,
    env_from_json,
    env_to_json,
    law_at,
    reflect,
    sample_iid,
)

__all__ = [
    "__version__",
    "Environment",
    "JumpLaw",
    "env_from_json",
    "env_to_json",
    "law_at",
    "reflect",
    "sample_iid",
]
