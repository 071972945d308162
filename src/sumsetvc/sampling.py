"""Deterministic seeded sampling for family generators and scan harnesses.

The generator is SplitMix64 (Steele, Lea & Flood 2014) and distinct subsets
are drawn with Floyd's algorithm. Both are pinned here, independent of any
interpreter-provided RNG, so a given 64-bit seed reproduces the same output
byte-for-byte on every platform and Python version.
"""

from __future__ import annotations

from .errors import ParameterError

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """64-bit SplitMix64 stream; the sole randomness source in this package."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection at the top.

        One draw covers 2**64 values, so bound is at most 2**64. The message
        names no bound: one too large may have too many digits to print.
        """
        if not 0 < bound <= 1 << 64:
            raise ParameterError("bound must be in 1..2**64")
        limit = ((1 << 64) // bound) * bound
        while True:
            draw = self.next_uint64()
            if draw < limit:
                return draw % bound


def sample_distinct(universe: int, count: int, gen: SplitMix64) -> list[int]:
    """Draw `count` distinct uniform values from range(universe), sorted.

    Floyd's algorithm: exactly `count` draws, no reservoir, uniform over all
    `count`-subsets of the universe.
    """
    if count < 0 or count > universe:
        raise ParameterError(f"cannot draw {count} distinct values from a universe of {universe}")
    chosen: set[int] = set()
    for j in range(universe - count, universe):
        t = gen.below(j + 1)
        chosen.add(j if t in chosen else t)
    return sorted(chosen)
