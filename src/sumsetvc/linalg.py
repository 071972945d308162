"""Dense matrices over prime fields and exact rank computation.

Two elimination paths share one pivot rule (first nonzero entry in column
order, scanning rows top-down), and only rank values are observable; a
differential test makes them agree.

- p = 2: rows packed into Python integers and reduced by XOR
  (`rank_gf2_packed`, a `SpanTrackerGF2` loop).
- General p: row echelon on an int64 copy (`_rank_generic`). A pivot at
  (r, c) updates only the trailing block m[r+1:, c+1:], since nothing above
  or left of it is read again. The pivot column is reduced mod p when it is
  read and the pivot row is reduced and scaled by the pivot's inverse, so an
  update subtracts products of residues, each at most (p-1)^2. The block
  itself is reduced mod p only when one more update could leave int64: after
  k updates since its last reduction its entries lie within
  ±(p + k*(p-1)^2) < 2**63. This keeps the arithmetic exact for every
  modulus that `check_modulus` admits (p*p < 2**63). The schedule depends on
  p alone: at p = 3 the block is never reduced, at p = 3037000493 before
  every update after the first.
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
    tracker = SpanTrackerGF2()
    for row in rows:
        tracker.add(row)
    return tracker.rank


_INT64_MAX = 2**63 - 1


def _rank_generic(array: np.ndarray, p: int) -> int:
    m = array.copy()
    n_rows, n_cols = m.shape
    step = (p - 1) ** 2  # the most one update moves an entry of the trailing block
    bound = p  # |entry| of the trailing block stays at most this
    r = 0
    for c in range(n_cols):
        col = m[r:, c] % p
        nz = col.nonzero()[0]
        if nz.size == 0:
            continue
        piv = int(nz[0])
        if piv:
            m[[r, r + piv], c + 1 :] = m[[r + piv, r], c + 1 :]
            col[[0, piv]] = col[[piv, 0]]
        row = m[r, c + 1 :] % p * pow(int(col[0]), -1, p) % p
        block = m[r + 1 :, c + 1 :]
        if bound > _INT64_MAX - step:
            block %= p
            bound = p
        block -= np.multiply.outer(col[1:], row)
        bound += step
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
    """Incrementally tracked span of bit-packed vectors over F_2."""

    __slots__ = ("_pivots",)

    def __init__(self):
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
    """Incrementally tracked span of equal-length vectors over F_p, pivots normalized."""

    __slots__ = ("modulus", "_pivots")

    def __init__(self, modulus: int):
        check_modulus(modulus)
        self.modulus = modulus
        self._pivots: dict[int, np.ndarray] = {}

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def reduce(self, vec: np.ndarray) -> np.ndarray:
        p = self.modulus
        cur = np.mod(np.asarray(vec, dtype=np.int64), p)
        while True:
            nz = cur.nonzero()[0]
            if nz.size == 0:
                return cur
            j = int(nz[0])
            piv = self._pivots.get(j)
            if piv is None:
                return cur
            cur -= cur[j] * piv
            cur %= p

    def contains(self, vec: np.ndarray) -> bool:
        return not self.reduce(vec).any()

    def add(self, vec: np.ndarray) -> bool:
        cur = self.reduce(vec)
        nz = cur.nonzero()[0]
        if nz.size == 0:
            return False
        j = int(nz[0])
        inv = pow(int(cur[j]), -1, self.modulus)
        self._pivots[j] = cur * inv % self.modulus
        return True
