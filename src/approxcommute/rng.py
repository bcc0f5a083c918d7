"""Deterministic splittable PRNG used for reproducible instance streams.

The generator is splitmix64 (Steele, Lea, Flood; the java.util.SplittableRandom
finalizer).  Streams are derived from a 64-bit seed plus a list of keys via
FNV-1a hashing, so the same (seed, keys) always yields the same stream on any
platform or implementation.  All bounded draws use plain modulo reduction and
all probability events use exact integer comparison, so no floating point is
involved anywhere: a draw x is a hit at p = a/b when x*b < a*2^64, that is when
x < ceil(p*2^64), clamped to [0, 2^64].  Draw i after state s is mix(s + i*gamma),
so `events` draws a block of them as one wrapping uint64 array.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def _mix(z):
    """The splitmix64 finalizer, on an int or elementwise on a uint64 array."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def fnv1a64(text: str) -> int:
    """64-bit FNV-1a hash of a UTF-8 string."""
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def derive_seed(seed: int, *keys: int | str) -> int:
    """Child seed for a named substream; part of the reproducibility contract."""
    acc = seed & _MASK64
    for key in keys:
        k = fnv1a64(key) if isinstance(key, str) else key & _MASK64
        acc = _mix((acc + _GAMMA) & _MASK64) ^ k
    return acc & _MASK64


class SplitMix64:
    """splitmix64 stream over 64-bit unsigned outputs."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n) via modulo reduction (documented contract)."""
        if n <= 0:
            raise ValueError(f"below() needs a positive bound, got {n}")
        return self.next_u64() % n

    def event(self, probability: Fraction) -> bool:
        """True with the given exact probability: one draw of `events`."""
        return bool(self.events(probability, 1)[0])

    def events(self, probability: Fraction, count: int) -> np.ndarray:
        """The next count event(probability) outcomes as one bool array, one uint64 block."""
        p, start = Fraction(probability), self._state
        t = min(max(-(-(p.numerator << 64) // p.denominator), 0), 1 << 64)  # ceil(p 2^64)
        self._state = (start + count * _GAMMA) & _MASK64
        if t > _MASK64:  # p >= 1: every draw is below 2^64, which uint64 cannot hold
            return np.ones(count, dtype=bool)
        steps = np.arange(1, count + 1, dtype=np.uint64)
        return _mix(steps * np.uint64(_GAMMA) + np.uint64(start)) < np.uint64(t)

    def choice(self, items):
        return items[self.below(len(items))]

    def split(self, *keys: int | str) -> "SplitMix64":
        return SplitMix64(derive_seed(self._state, *keys))
