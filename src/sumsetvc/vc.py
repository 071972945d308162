"""Shattering tests and exact VC dimension for set families.

A subset Y of the ground set is shattered by A when every 0/1 pattern on Y
occurs as S & Y for some member S. The level search exploits downward
closure: a set can only be shattered if the set obtained by dropping its
top element is, so level k+1 candidates are built from level-k survivors by
adding one element above the current top bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import ParameterError
from .families import SetFamily


@dataclass(frozen=True)
class ShatterReport:
    family_size: int
    vc_dim: int
    shattered_sets_by_level: tuple[tuple[int, ...], ...]


def _is_shattered_masks(members: tuple[int, ...], candidate: int) -> bool:
    patterns = 1 << candidate.bit_count()
    if len(members) < patterns:
        return False
    return len({m & candidate for m in members}) == patterns


def is_shattered(family: SetFamily, candidate: int) -> bool:
    """True iff {S & candidate : S in family} realizes all 2^|candidate| patterns."""
    family.require_nonempty("is_shattered")
    if not 0 <= candidate < (1 << family.ground_size):
        raise ParameterError(f"candidate {candidate} out of range for ground size {family.ground_size}")
    return _is_shattered_masks(family.members, candidate)


def _levels(members: tuple[int, ...], n: int):
    """Yield the shattered sets of size 1, 2, ... level by level, each sorted ascending."""
    frontier = [0]
    while True:
        found = []
        for y in frontier:
            for j in range(y.bit_length(), n):
                cand = y | (1 << j)
                if _is_shattered_masks(members, cand):
                    found.append(cand)
        if not found:
            return
        found.sort()
        yield found
        frontier = found


@lru_cache(maxsize=1 << 18)
def _vc_dim_masks(members: tuple[int, ...], n: int) -> int:
    return sum(1 for _ in _levels(members, n))


def vc_dim(family: SetFamily) -> int:
    """Largest |Y| with Y shattered by the family.

    Exact only; pruning keeps single calls practical up to about n = 24.
    """
    family.require_nonempty("vc_dim")
    return _vc_dim_masks(family.members, family.ground_size)


def shattered_sets(family: SetFamily) -> ShatterReport:
    """All shattered sets, grouped by size; downward closed by construction."""
    family.require_nonempty("shattered_sets")
    levels = [(0,), *map(tuple, _levels(family.members, family.ground_size))]
    return ShatterReport(
        family_size=len(family),
        vc_dim=len(levels) - 1,
        shattered_sets_by_level=tuple(levels),
    )
