"""Dense matrices over prime fields and exact rank computation.

Two elimination paths share one pivot rule (first nonzero entry in column
order, scanning rows top-down): an XOR path for p=2 with rows packed into
Python integers, and a vectorized modular path for general p. Only rank
values are observable and the two paths must agree; a differential test
enforces this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ParameterError
from .families import check_modulus


@dataclass(frozen=True, eq=False)
class FieldMatrix:
    """Immutable dense matrix over F_p; entries stored reduced mod p."""

    modulus: int
    array: np.ndarray

    def __post_init__(self):
        check_modulus(self.modulus)
        arr = np.asarray(self.array, dtype=np.int64)
        if arr.ndim != 2:
            raise ParameterError("matrix must be two-dimensional")
        arr = np.mod(arr, self.modulus)
        arr.setflags(write=False)
        object.__setattr__(self, "array", arr)

    @classmethod
    def from_rows(cls, modulus: int, rows: Sequence[Sequence[int]]) -> "FieldMatrix":
        return cls(modulus, np.array(rows, dtype=np.int64))

    @classmethod
    def identity(cls, modulus: int, size: int) -> "FieldMatrix":
        return cls(modulus, np.eye(size, dtype=np.int64))

    @property
    def rows(self) -> int:
        return self.array.shape[0]

    @property
    def cols(self) -> int:
        return self.array.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        return self.modulus == other.modulus and np.array_equal(self.array, other.array)

    def __hash__(self):
        return hash((self.modulus, self.array.shape, self.array.tobytes()))


def pack_bits(array: np.ndarray) -> list[int]:
    """Rows of a 2-D array as integers, bit j set where entry j is nonzero."""
    packed = np.packbits(array, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def pack_gf2_rows(matrix: FieldMatrix) -> list[int]:
    """Rows as integers with bit j = column j; requires p = 2."""
    if matrix.modulus != 2:
        raise ParameterError("packed rows are defined for p = 2 only")
    return pack_bits(matrix.array)


def rank_gf2_packed(rows: Iterable[int]) -> int:
    """Rank over F_2 of bit-packed rows; pivots claimed in column order."""
    rows = list(rows)
    tracker = SpanTrackerGF2(max(rows, default=0).bit_length())
    for row in rows:
        tracker.add(row)
    return tracker.rank


def _rank_generic(array: np.ndarray, p: int) -> int:
    m = array.copy()
    n_rows, n_cols = m.shape
    r = 0
    for c in range(n_cols):
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), -1, p)
        m[r] = m[r] * inv % p
        col = m[:, c].copy()
        col[r] = 0
        m -= np.outer(col, m[r])
        m %= p
        r += 1
        if r == n_rows:
            break
    return r


def rank(matrix: FieldMatrix) -> int:
    """Exact rank over F_p: the packed kernel for p=2, modular elimination otherwise."""
    if matrix.modulus == 2:
        return rank_gf2_packed(pack_gf2_rows(matrix))
    return _rank_generic(matrix.array, matrix.modulus)


class SpanTrackerGF2:
    """Incrementally tracked span of bit-packed length-m vectors over F_2."""

    __slots__ = ("length", "_pivots")

    def __init__(self, length: int):
        self.length = length
        self._pivots: dict[int, int] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def reduce(self, vec: int) -> int:
        cur = vec
        while cur:
            piv = self._pivots.get(cur & -cur)
            if piv is None:
                return cur
            cur ^= piv
        return 0

    def contains(self, vec: int) -> bool:
        return self.reduce(vec) == 0

    def add(self, vec: int) -> bool:
        cur = self.reduce(vec)
        if cur == 0:
            return False
        self._pivots[cur & -cur] = cur
        return True


class SpanTrackerModP:
    """Incrementally tracked span of length-m vectors over F_p, pivots normalized."""

    __slots__ = ("modulus", "length", "_pivots")

    def __init__(self, modulus: int, length: int):
        check_modulus(modulus)
        self.modulus = modulus
        self.length = length
        self._pivots: dict[int, np.ndarray] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        p = self.modulus
        cur = np.mod(np.asarray(vec, dtype=np.int64), p)
        while True:
            nz = np.nonzero(cur)[0]
            if nz.size == 0:
                return cur
            j = int(nz[0])
            piv = self._pivots.get(j)
            if piv is None:
                return cur
            cur = (cur - cur[j] * piv) % p

    def contains(self, vec: np.ndarray) -> bool:
        return not self.reduce(vec).any()

    def add(self, vec: np.ndarray) -> bool:
        cur = self.reduce(vec)
        nz = np.nonzero(cur)[0]
        if nz.size == 0:
            return False
        j = int(nz[0])
        inv = pow(int(cur[j]), -1, self.modulus)
        self._pivots[j] = cur * inv % self.modulus
        return True
