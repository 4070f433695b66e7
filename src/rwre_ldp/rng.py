"""Counter-based random numbers with reproducible, documented semantics.

Algorithm identifier: ``"splitmix64"``. The k-th raw draw of the stream
with 64-bit key ``s`` is ``mix64(s + (k+1) * GOLDEN)`` where ``mix64`` is
the splitmix64 finalizer (xor-shift / multiply chain with the standard
constants) and ``GOLDEN = 0x9E3779B97F4A7C15``. Uniform doubles take the
top 53 bits: ``u = (draw >> 11) * 2**-53``. Replica j of a run keyed by
``master`` uses stream key ``mix64(master + (j+1) * GOLDEN)``; distinct
replicas therefore never share a stream, and any draw can be regenerated
from ``(master, j, k)`` alone. Every quantity here is pure 64-bit integer
arithmetic, so the byte stream is reproducible across platforms and
languages.
"""

from __future__ import annotations

import numpy as np

ALGORITHM = "splitmix64"

GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0 ** -53


def mix64(x: np.ndarray | int) -> np.ndarray | np.uint64:
    """splitmix64 finalizer, elementwise over uint64 input."""
    z = np.asarray(x, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        z = z ^ (z >> np.uint64(31))
    return z if z.ndim else z[()]


def stream_key(master_seed: int, replica: int) -> np.uint64:
    """Key of the replica-th stream under the documented split."""
    with np.errstate(over="ignore"):
        base = np.uint64(master_seed) + np.uint64(replica + 1) * GOLDEN
    return mix64(base)


def raw(key: np.uint64, start: int, count: int) -> np.ndarray:
    """Raw uint64 draws start..start+count-1 of the stream with this key."""
    ks = np.arange(start + 1, start + count + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return mix64(np.uint64(key) + ks * GOLDEN)


def uniform(key: np.uint64, start: int, count: int) -> np.ndarray:
    """Uniform [0,1) doubles from the top 53 bits of the raw draws."""
    return (raw(key, start, count) >> np.uint64(11)).astype(np.float64) * _U53


def uniform_at(keys: np.ndarray, k: int) -> np.ndarray:
    """Draw number k of every stream in `keys` at once.

    Identical to uniform(key, k, 1) stream by stream; one elementwise
    finalizer pass over the key vector.
    """
    with np.errstate(over="ignore"):
        z = mix64(np.asarray(keys, dtype=np.uint64) + np.uint64(k + 1) * GOLDEN)
    return (z >> np.uint64(11)).astype(np.float64) * _U53


class Stream:
    """Stateful cursor over one counter-based stream.

    Interchangeable with regenerating any block by index; the state is
    just the position of the next draw.
    """

    def __init__(self, master_seed: int, replica: int = 0):
        self.key = stream_key(master_seed, replica)
        self.pos = 0

    def uniforms(self, count: int) -> np.ndarray:
        out = uniform(self.key, self.pos, count)
        self.pos += count
        return out
