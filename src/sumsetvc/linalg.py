"""Dense matrices over prime fields and exact rank computation.

One span tracker per field does every elimination: `add(vectors)` absorbs a
batch and returns how many grew the span, `contains(vec)` tests membership,
and the rank of a matrix is a fresh tracker's `add` over its rows.

- p = 2: `SpanTrackerGF2`, bit-packed ints (bit j = entry j) reduced by XOR.
- General p: `SpanTrackerModP` sweeps the columns of a 2-D int64 block of
  row vectors. At a column with a stored pivot row it clears the rows not yet
  pivots; elsewhere the first of them nonzero there is stored, normalized (1
  at the column, 0 left of it), and clears the rows below it. Each update
  touches only rows and columns still to be read.

Each update subtracts products of residues, each at most (p-1)^2, so after k
updates an entry lies within +-(p + k*(p-1)^2), and the rows still to be read
are reduced mod p only when one more update could leave int64. Blocks enter
as residues and stored rows are residues, so this holds across blocks and for
every modulus `check_modulus` admits (p*p < 2**63). Memory: at most one row
per column, so vectors of length m take m x m int64 beyond the block added.
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
    return SpanTrackerGF2().add(rows)


def rank(matrix: FieldMatrix) -> int:
    """Exact rank over F_p: the rows added to a fresh tracker of the field."""
    if matrix.modulus == 2:
        return rank_gf2_packed(pack_gf2_rows(matrix))
    return SpanTrackerModP(matrix.modulus).add(matrix.array)


class SpanTrackerGF2:
    """Incrementally tracked span of bit-packed vectors over F_2."""

    __slots__ = ("_pivots",)

    def __init__(self):
        self._pivots: dict[int, int] = {}  # lowest set bit -> pivot row

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

    def add(self, vectors: Iterable[int]) -> int:
        """Absorb the vectors in order; returns how many grew the span."""
        pivots = self._pivots
        before = len(pivots)
        for vec in vectors:
            cur = self.reduce(vec)
            if cur:
                pivots[cur & -cur] = cur
        return len(pivots) - before


_INT64_MAX = 2**63 - 1


class SpanTrackerModP:
    """Incrementally tracked span of equal-length vectors over F_p, pivots normalized."""

    __slots__ = ("modulus", "_pivots")

    def __init__(self, modulus: int):
        check_modulus(modulus)
        self.modulus = modulus
        self._pivots: dict[int, np.ndarray] = {}  # pivot column -> row

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _eliminate(self, vectors) -> tuple[np.ndarray, list[int]]:
        """Row echelon of the vectors against the pivot rows: the new pivot
        rows, normalized, and their columns."""
        p, pivots = self.modulus, self._pivots
        m = np.array(vectors, dtype=np.int64, ndmin=2)
        if m.size and (m.min() < 0 or m.max() >= p):  # checked first: reducing is slower
            m %= p
        n_rows, n_cols = m.shape
        step = (p - 1) ** 2  # the most one update moves an entry
        bound = p  # |entry| of the rows still to be read stays at most this
        new = []
        r = 0
        for c in range(n_cols):
            if r == n_rows:
                break
            col = m[r:, c] % p
            nz = col.nonzero()[0]
            if nz.size == 0:
                continue
            row = pivots.get(c)
            if row is None:
                piv = int(nz[0])
                if piv:
                    m[[r, r + piv], c:] = m[[r + piv, r], c:]
                    col[[0, piv]] = col[[piv, 0]]
                m[r, :c] = 0
                row = m[r]
                row[c:] = row[c:] % p * pow(int(col[0]), -1, p) % p
                new.append(c)
                r += 1
                col = col[1:]
            rest = m[r:, c:]
            if bound > _INT64_MAX - step:
                rest %= p
                bound = p
            rest -= np.multiply.outer(col, row[c:])
            bound += step
        return m[:r], new

    def contains(self, vec: np.ndarray) -> bool:
        return not self._eliminate(vec)[1]

    def add(self, vectors) -> int:
        """Absorb the rows of a 2-D array-like (or one vector); returns how many grew the span."""
        rows, new = self._eliminate(vectors)
        self._pivots.update(zip(new, rows.copy()))  # copied apart from the rest of the block
        return len(new)
