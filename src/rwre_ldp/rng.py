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
_S27, _S30, _S31, _S11 = (np.uint64(n) for n in (27, 30, 31, 11))
_U53 = 2.0 ** -53
_MASK64 = (1 << 64) - 1


def mix64(x: np.ndarray | int) -> np.ndarray | np.uint64:
    """splitmix64 finalizer, elementwise over uint64 input."""
    # rounds run in place on a private array; array arithmetic wraps
    # without overflow warnings, unlike arithmetic on numpy scalars
    z = np.array(x, dtype=np.uint64)
    t = np.empty_like(z)
    np.right_shift(z, _S30, out=t)
    z ^= t
    z *= _MIX1
    np.right_shift(z, _S27, out=t)
    z ^= t
    z *= _MIX2
    np.right_shift(z, _S31, out=t)
    z ^= t
    return z if z.ndim else z[()]


def stream_key(master_seed: int, replica: int) -> np.uint64:
    """Key of the replica-th stream under the documented split."""
    with np.errstate(over="ignore"):
        base = np.uint64(master_seed) + np.uint64(replica + 1) * GOLDEN
    return mix64(base)


def stream_keys(master_seed: int, lo: int, hi: int) -> np.ndarray:
    """Keys of replicas lo..hi-1 in one pass: entry j - lo equals
    stream_key(master_seed, j). The split uses the draw formula, so these
    are raw draws lo..hi-1 of the stream keyed by master_seed."""
    return raw(master_seed, lo, hi - lo)


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
    step = np.uint64((k + 1) * int(GOLDEN) & _MASK64)
    z = mix64(np.asarray(keys, dtype=np.uint64) + step)
    z >>= _S11
    u = z.astype(np.float64)
    u *= _U53
    return u
