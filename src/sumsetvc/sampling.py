"""Deterministic seeded sampling for family generators and scan harnesses.

The generator is SplitMix64 (Steele, Lea & Flood 2014) and distinct subsets
are drawn with Floyd's algorithm. Both are pinned here, independent of any
interpreter-provided RNG, so a given 64-bit seed reproduces the same output
byte-for-byte on every platform and Python version.

SplitMix64 is counter-based: draw i of a stream is mix(state + i * gamma),
so a batch of draws is one wrapping uint64 array pass (`below_many`) that
yields the same values, and leaves the same state, as a loop of `below`.
"""

from __future__ import annotations

import numpy as np

from .errors import ParameterError

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # the state's step per draw
_MIX = (0xBF58476D1CE4E5B9, 0x94D049BB133111EB)


def _mix(z):
    """SplitMix64's output function, on a Python int or a uint64 array (which wraps)."""
    z = (z ^ (z >> 30)) * _MIX[0] & _MASK64
    z = (z ^ (z >> 27)) * _MIX[1] & _MASK64
    return z ^ (z >> 31)


def _check_bound(bound: int) -> int:
    """The rejection limit of a bound: the largest multiple of it that one draw
    can take, 2**64 at most. The message names no bound: one too large may
    have too many digits to print."""
    if not 0 < bound <= 1 << 64:
        raise ParameterError("bound must be in 1..2**64")
    return ((1 << 64) // bound) * bound


class SplitMix64:
    """64-bit SplitMix64 stream; the sole randomness source in this package."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_uint64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), unbiased via rejection at the top.

        One draw covers 2**64 values, so bound is at most 2**64.
        """
        limit = _check_bound(bound)
        while True:
            draw = self.next_uint64()
            if draw < limit:
                return draw % bound

    def below_many(self, bound: int, count: int) -> np.ndarray:
        """The next `count` values of `below(bound)`, as a uint64 array.

        Each pass mixes the next `count` states at once and keeps the draws
        under the rejection limit; a pass that rejected some draws is followed
        by one for as many draws as are still missing. So the state ends at
        the last kept draw, where the loop of `below` leaves it.
        """
        limit = _check_bound(bound)
        if count < 0:
            raise ParameterError(f"count must be >= 0, got {count}")
        kept = [np.empty(0, dtype=np.uint64)]
        while count > 0:
            steps = np.arange(1, count + 1, dtype=np.uint64)
            draws = _mix(steps * np.uint64(_GAMMA) + np.uint64(self._state))
            self._state = (self._state + count * _GAMMA) & _MASK64
            draws = draws[draws <= np.uint64(limit - 1)]
            # a bound of 2**64 fits no uint64, and every draw is already below it
            kept.append(draws if bound > _MASK64 else draws % np.uint64(bound))
            count -= len(draws)
        return np.concatenate(kept)


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
