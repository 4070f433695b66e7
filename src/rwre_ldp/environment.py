"""Environments for random walks on the integers with bounded jumps.

An environment assigns to every site x a jump law on the offsets
{-B, ..., -1, 1, ..., B} (staying put is excluded). Three kinds are
supported: a single law everywhere ("homogeneous"), a finite cycle of
laws repeated with period L ("periodic"), and an explicit window of
laws drawn independently per site from a finite mixture ("iid").

Uniform ellipticity is a floor the environment owns: it carries a
constant delta in (0, 0.5], by default the least unit-jump mass of its
laws, and construction raises, naming every law and sign, where
prob(+-1) falls below it.

Every computation reads one (class, jump) table off the environment it is
given: `Environment.probs`, and for a class cycle its layout, `targets`
and the scatter index of `class_cycle`. Each object builds its own table
once: `probs` at construction, where the floor check reads it, the cycle
layout on first use; the module keeps no memo of environments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import rng
from .errors import ConfigError, WindowExhaustedError

_NORM_TOL = 1e-12


@lru_cache(maxsize=None)
def offsets(b: int) -> np.ndarray:
    """Jump offsets in canonical order: -b, ..., -1, 1, ..., b; read-only."""
    offs = np.concatenate([np.arange(-b, 0), np.arange(1, b + 1)])
    offs.flags.writeable = False
    return offs


def offset_index(b: int, z: int) -> int:
    """Column of offset z in offsets(b)."""
    if z == 0 or abs(z) > b:
        raise ValueError(f"offset {z} outside {{-{b}..-1, 1..{b}}}")
    return z + b - (z > 0)


def require_periodic(env: Environment, what: str) -> None:
    """Reject sampled windows where a finite class cycle is needed."""
    if env.kind not in ("homogeneous", "periodic"):
        raise ValueError(f"{what} requires a homogeneous or periodic environment")


def class_cycle(env: Environment, rows: np.ndarray) -> np.ndarray:
    """Scatter per-(class, offset) values onto env's class cycle: the L x L
    matrix M[i, (i+z_j) mod L] = sum_j rows[i, j], added in ascending
    offset order (bincount adds its weights in input order, from 0.0).
    A stack of rows, shape (n, L, 2B), gives the stack of n cycles, each
    added in the same order."""
    L, flat = env.period, env.cycle_index
    n = rows.size // flat.size
    if n > 1:
        flat = (flat + (L * L) * np.arange(n)[:, None]).ravel()
    weights = rows.swapaxes(-1, -2).ravel()
    return np.bincount(flat, weights=weights, minlength=n * L * L).reshape(rows.shape[:-1] + (L,))


@dataclass(frozen=True)
class JumpLaw:
    """Probability law of a single jump.

    `probs` holds only the nonzero entries, sorted by offset. Offsets with
    probability exactly zero are permitted anywhere except +-1, which must
    carry positive mass for ellipticity to be satisfiable at all.
    """

    b: int
    probs: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if self.b < 1:
            raise ValueError(f"jump bound must be >= 1, got {self.b}")
        seen = set()
        total = 0.0
        for z, p in self.probs:
            if z == 0 or abs(z) > self.b:
                raise ValueError(f"offset {z} outside {{-{self.b}..-1, 1..{self.b}}}")
            if z in seen:
                raise ValueError(f"duplicate offset {z}")
            seen.add(z)
            if not (p > 0.0):
                raise ValueError(f"offset {z} carries non-positive mass {p}")
            total += p
        if abs(total - 1.0) > _NORM_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1 within {_NORM_TOL}")
        if 1 not in seen or -1 not in seen:
            raise ValueError("offsets +1 and -1 must both carry positive mass")

    @staticmethod
    def from_dict(d: Mapping[int | str, float], b: int | None = None) -> "JumpLaw":
        """Build from an offset -> probability mapping; keys may be strings."""
        try:
            pairs = d.items()
        except AttributeError:
            raise TypeError(f"a jump law must map offsets to probabilities, got {d!r}") from None
        items = sorted((int(z), float(p)) for z, p in pairs if float(p) != 0.0)
        if b is None:
            b = max(abs(z) for z, _ in items)
        return JumpLaw(b=b, probs=tuple(items))

    def to_dict(self) -> dict[str, float]:
        return {str(z): p for z, p in self.probs}

    def prob(self, z: int) -> float:
        for zz, p in self.probs:
            if zz == z:
                return p
        return 0.0

    def as_array(self) -> np.ndarray:
        """Probabilities aligned with offsets(b); zeros where unsupported."""
        out = np.zeros(2 * self.b)
        offs = offsets(self.b)
        lookup = dict(self.probs)
        for j, z in enumerate(offs):
            out[j] = lookup.get(int(z), 0.0)
        return out

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(z for z, _ in self.probs)

    def mean(self) -> float:
        return sum(z * p for z, p in self.probs)

    def reflected(self) -> "JumpLaw":
        return JumpLaw(b=self.b, probs=tuple(sorted((-z, p) for z, p in self.probs)))


@dataclass(frozen=True)
class Environment:
    """A site-indexed family of jump laws with a declared ellipticity floor.

    kind: "homogeneous" (one law), "periodic" (laws[x mod L]),
    or "iid" (laws indexed by an explicit window [x_lo, x_hi], inclusive).
    """

    kind: str
    b: int
    laws: tuple[JumpLaw, ...]
    delta: float | None = None  # None: the least p(+-1) over the laws
    window: tuple[int, int] | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in ("homogeneous", "periodic", "iid"):
            raise ValueError(f"unknown environment kind {self.kind!r}")
        if not self.laws:
            raise ValueError("environment needs at least one law")
        if self.delta is not None and not (0.0 < self.delta <= 0.5):
            raise ValueError(f"ellipticity constant must lie in (0, 0.5], got {self.delta}")
        for law in self.laws:
            if law.b != self.b:
                raise ValueError(f"law bound {law.b} != environment bound {self.b}")
        if self.kind == "homogeneous" and len(self.laws) != 1:
            raise ValueError("homogeneous environment must hold exactly one law")
        if self.kind == "iid":
            if self.window is None:
                raise ValueError("iid environment needs a window")
            lo, hi = self.window
            if not (lo < 0 < hi):
                raise ValueError(f"window must straddle the origin, got {self.window}")
            if len(self.laws) != hi - lo + 1:
                raise ValueError(
                    f"window [{lo}, {hi}] needs {hi - lo + 1} laws, got {len(self.laws)}"
                )
        elif self.window is not None:
            raise ValueError("only iid environments carry a window")
        unit = self.probs[:, [offset_index(self.b, 1), offset_index(self.b, -1)]]
        if self.delta is None:
            object.__setattr__(self, "delta", float(unit.min()))
        violations = [
            f"law {i}: prob({sign})={float(p)} below delta={self.delta}"
            for i, row in enumerate(unit)
            for sign, p in zip(("+1", "-1"), row)
            if p < self.delta
        ]
        if violations:
            raise ValueError("; ".join(violations))

    def __getstate__(self) -> dict:
        # only the fields travel: an array comes back from a pickle
        # writeable, so the tables below are rebuilt, read-only, on first use
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # The (class, jump) table (built at construction, where the floor check
    # reads it) and the cycle layout (built on first use), once per object:
    # cached_property writes to the instance __dict__, past the frozen
    # __setattr__, and equality and hash still see the fields only.
    @cached_property
    def probs(self) -> np.ndarray:
        """p(z) per entry of `laws` (per class, or per window site) as a
        (len(laws), 2B) array aligned with offsets(B); read-only."""
        probs = np.stack([law.as_array() for law in self.laws])
        probs.flags.writeable = False
        return probs

    @cached_property
    def targets(self) -> np.ndarray:
        """Class after each jump: dst[i, j] = (i + z_j) mod L; read-only."""
        require_periodic(self, "the class-cycle layout")
        L = self.period
        dst = (np.arange(L)[:, None] + offsets(self.b)) % L
        dst.flags.writeable = False
        return dst

    @cached_property
    def cycle_index(self) -> np.ndarray:
        """The offset-major flat index i*L + dst[i, j] into the L x L cycle
        that `class_cycle` scatters through; read-only."""
        L = self.period
        flat = (np.arange(L)[:, None] * L + self.targets).T.ravel()
        flat.flags.writeable = False
        return flat

    @property
    def period(self) -> int | None:
        """Number of site classes; None for window environments."""
        if self.kind == "homogeneous":
            return 1
        if self.kind == "periodic":
            return len(self.laws)
        return None

    def site_class(self, x: int) -> int:
        """Index into `laws` of the law acting at site x."""
        if self.kind == "homogeneous":
            return 0
        if self.kind == "periodic":
            return x % len(self.laws)
        lo, hi = self.window
        if not (lo <= x <= hi):
            raise WindowExhaustedError(
                f"site {x} outside sampled window [{lo}, {hi}]; widen the window"
            )
        return x - lo


def homogeneous(law: JumpLaw | Mapping, delta: float | None = None) -> Environment:
    """Environment with the same law at every site."""
    if not isinstance(law, JumpLaw):
        law = JumpLaw.from_dict(law)
    return Environment(kind="homogeneous", b=law.b, delta=delta, laws=(law,))


def periodic(laws: Sequence[JumpLaw | Mapping], delta: float | None = None) -> Environment:
    """Environment repeating the given laws with period len(laws)."""
    parsed = tuple(l if isinstance(l, JumpLaw) else JumpLaw.from_dict(l) for l in laws)
    b = max(l.b for l in parsed)
    parsed = tuple(
        l if l.b == b else JumpLaw(b=b, probs=l.probs) for l in parsed
    )
    return Environment(kind="periodic", b=b, delta=delta, laws=parsed)


def law_at(env: Environment, x: int) -> JumpLaw:
    """Law acting at site x. Periodic indexing wraps modulo the period,
    including at negative sites; window environments raise outside their
    window."""
    return env.laws[env.site_class(x)]


def reflect(env: Environment) -> Environment:
    """The left-right mirrored environment.

    law_at(reflect(env), x)(z) == law_at(env, -x)(-z) for every site and
    offset, so right-passage quantities of the reflection are the left-
    passage quantities of the original. Applying it twice restores the
    input exactly, field by field.
    """
    if env.kind == "homogeneous":
        laws = (env.laws[0].reflected(),)
        return Environment(kind=env.kind, b=env.b, delta=env.delta, laws=laws, seed=env.seed)
    if env.kind == "periodic":
        L = len(env.laws)
        laws = tuple(env.laws[(-i) % L].reflected() for i in range(L))
        return Environment(kind=env.kind, b=env.b, delta=env.delta, laws=laws, seed=env.seed)
    lo, hi = env.window
    laws = tuple(env.laws[hi - lo - i].reflected() for i in range(hi - lo + 1))
    return Environment(
        kind="iid", b=env.b, delta=env.delta, laws=laws, window=(-hi, -lo), seed=env.seed
    )


def sample_iid(
    atoms: Sequence[tuple[float, JumpLaw]],
    x_lo: int,
    x_hi: int,
    seed: int,
    delta: float | None = None,
) -> Environment:
    """Draw one law per site of [x_lo, x_hi] from a finite mixture.

    Site x uses draw number (x - x_lo) of the splitmix64 stream keyed by
    `seed`, so the same call is reproducible bit for bit and enlarging the
    window keeps previously drawn sites unchanged.
    """
    if not atoms:
        raise ValueError("need at least one atom")
    if not (x_lo < 0 < x_hi):
        raise ValueError(f"window must straddle the origin, got [{x_lo}, {x_hi}]")
    weights = np.array([w for w, _ in atoms], dtype=float)
    if np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError("atom weights must be nonnegative with positive total")
    cum = np.cumsum(weights / weights.sum())
    laws_pool = [l for _, l in atoms]
    b = max(l.b for l in laws_pool)
    laws_pool = [l if l.b == b else JumpLaw(b=b, probs=l.probs) for l in laws_pool]
    n = x_hi - x_lo + 1
    u = rng.uniform(rng.stream_key(seed, 0), 0, n)
    picks = np.searchsorted(cum, u, side="right")
    picks = np.minimum(picks, len(laws_pool) - 1)
    laws = tuple(laws_pool[k] for k in picks)
    if delta is None:
        delta = min(min(l.prob(1), l.prob(-1)) for l in laws_pool)
    return Environment(
        kind="iid", b=b, delta=delta, laws=laws, window=(x_lo, x_hi), seed=seed
    )


def env_to_json(env: Environment) -> dict:
    """Serializable dict form. Offsets become string keys; zero entries are
    omitted. Window environments always emit their laws explicitly so the
    round trip is exact."""
    out: dict = {
        "type": env.kind,
        "B": env.b,
        "delta": env.delta,
        "laws": [law.to_dict() for law in env.laws],
    }
    if env.window is not None:
        out["window"] = list(env.window)
    if env.seed is not None:
        out["seed"] = env.seed
    return out


def _parse_laws(raw_laws: Iterable[Mapping], b: int, where: str) -> tuple[JumpLaw, ...]:
    if not (isinstance(raw_laws, (list, tuple)) and raw_laws):
        raise ConfigError(f"{where}.laws", "must be a nonempty list of jump laws")
    laws = []
    for i, d in enumerate(raw_laws):
        try:
            laws.append(JumpLaw.from_dict(d, b=b))
        except (ValueError, TypeError) as e:
            raise ConfigError(f"{where}.laws[{i}]", str(e)) from e
    return tuple(laws)


def parse_number(value, where: str, kind=float):
    """value as a finite float (or an int, with kind=int); a ConfigError
    naming where if it is not one."""
    try:
        number = kind(value)
    except (ValueError, TypeError, OverflowError):
        raise ConfigError(where, "must be an integer" if kind is int else "must be a number") from None
    if not math.isfinite(number):
        raise ConfigError(where, "must be a finite number")
    return number


def env_from_json(d: Mapping, where: str = "environment") -> Environment:
    """Parse the environment schema; errors point at the offending key.

    An "iid" entry may either carry explicit laws (with their window) or a
    mixture under "atoms" plus "seed" and "window", in which case the laws
    are drawn here.
    """
    if not isinstance(d, Mapping):
        raise ConfigError(where, "must be an object")
    try:
        kind = d["type"]
    except KeyError:
        raise ConfigError(f"{where}.type", "missing") from None
    if kind not in ("homogeneous", "periodic", "iid"):
        raise ConfigError(f"{where}.type", f"unknown environment type {kind!r}")
    if "B" not in d:
        raise ConfigError(f"{where}.B", "missing")
    b = parse_number(d["B"], f"{where}.B", int)
    delta = None if d.get("delta") is None else parse_number(d["delta"], f"{where}.delta")
    seed = None if d.get("seed") is None else parse_number(d["seed"], f"{where}.seed", int)
    window = None
    if kind == "iid":
        try:
            lo, hi = (int(v) for v in d["window"])
        except (KeyError, ValueError, TypeError, OverflowError):
            raise ConfigError(f"{where}.window", "missing or malformed") from None
        window = (lo, hi)

    if kind == "iid" and "laws" not in d:
        if "atoms" not in d:
            raise ConfigError(f"{where}.atoms", "iid environment needs laws or atoms")
        if not isinstance(d["atoms"], (list, tuple)):
            raise ConfigError(f"{where}.atoms", "must be a list of weighted laws")
        atoms = []
        for i, a in enumerate(d["atoms"]):
            try:
                atoms.append((float(a["weight"]), JumpLaw.from_dict(a["law"], b=b)))
            except (KeyError, ValueError, TypeError) as e:
                raise ConfigError(f"{where}.atoms[{i}]", str(e)) from e
        if seed is None:
            raise ConfigError(f"{where}.seed", "missing")
        try:
            return sample_iid(atoms, lo, hi, seed, delta=delta)
        except ValueError as e:
            raise ConfigError(where, str(e)) from e

    if "laws" not in d:
        raise ConfigError(f"{where}.laws", "missing")
    laws = _parse_laws(d["laws"], b, where)
    try:
        return Environment(kind=kind, b=b, delta=delta, laws=laws, window=window, seed=seed)
    except ValueError as e:
        raise ConfigError(where, str(e)) from e
