"""Dense matrices over prime fields and exact rank computation.

One span tracker per field does every elimination: `add(vectors)` absorbs a
batch and returns how many grew the span, `contains(vec)` tests membership,
and the rank of a matrix is a fresh tracker's `add` over its rows.

- p = 2: `SpanTrackerGF2`, bit-packed ints (bit j = entry j) reduced by XOR.
- p = 3: `SpanTrackerGF3`, each row a pair of bit planes (ones, twos), bit
  j set where entry j is 1 or 2 (bit slicing: Boothby-Bradshaw,
  arXiv:0901.1413). Entrywise, u + v is 1 where (u, v) is (1, 0), (0, 1) or
  (2, 2) and 2 where it is (2, 0), (0, 2) or (1, 1); with
  t = (u1 | v2) ^ (u2 | v1) that is ((u2 | v2) ^ t, (u1 | v1) ^ t), seven
  operations on whole rows, and -v swaps v's planes. Every entry stays a
  residue and the planes are unbounded Python ints, so there is no word to
  choose, no delayed reduction and no overflow bound.
- Other p: `SpanTrackerModP` sweeps the columns of a 2-D block of row
  vectors. At a column with a stored pivot row it clears the rows not yet
  pivots; elsewhere the first of them nonzero there is stored, normalized (1
  at the column, 0 left of it), and clears the rows below it. Each update
  touches only rows and columns still to be read.

Both packed trackers key each pivot by its lowest set bit, so it sits in
the row's first nonzero column, as in `SpanTrackerModP`. `span_tracker(p)`
picks the tracker of the field for `rank` and the graded span; only rows
already bit-packed over F_2 go to `rank_gf2_packed`, which needs no choice.

In `SpanTrackerModP` each update subtracts products of residues, each at
most (p-1)^2, so after k updates an entry lies within +-(p + k*(p-1)^2), and
the rows still to be read are reduced mod p only when one more update could
leave the tracker's word.
Blocks enter as residues and stored rows are residues, so this holds across
blocks. The word is the narrowest signed integer type that holds a residue
plus `_MIN_UPDATES` (8) updates, and so the normalization product (p-1)^2:
int8 for p <= 3, int16 for p <= 61, int32 for p <= 16381. Above that it is
int64, which holds a residue plus one update (p + (p-1)^2 <= p*p) for every
modulus `check_modulus` admits (p*p < 2**63).
Each narrower word halves the bytes an update streams, but a word that fits
fewer updates is reduced so often that its `%` costs more than that saves.
Memory: at most one row per column, so vectors of length m take m x m words
beyond the block added.
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
    return [int.from_bytes(row, "little") for row in packed]


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
    return span_tracker(matrix.modulus).add(matrix.array)


def span_tracker(p: int) -> SpanTrackerGF2 | SpanTrackerGF3 | SpanTrackerModP:
    """A fresh span tracker over F_p: bit-packed ints at p = 2, 2-D blocks otherwise."""
    if p == 2:
        return SpanTrackerGF2()
    if p == 3:
        return SpanTrackerGF3()
    return SpanTrackerModP(p)


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


class SpanTrackerGF3:
    """Incrementally tracked span of equal-length vectors over F_3, as bit planes."""

    __slots__ = ("_pivots",)

    def __init__(self):
        self._pivots: dict[int, tuple[int, int]] = {}  # lowest set bit -> (ones, twos), 1 there

    @property
    def rank(self) -> int:
        return len(self._pivots)

    @staticmethod
    def _planes(vectors):
        """(ones, twos) of each row of a 2-D array-like of integers (or one vector)."""
        m = np.asarray(vectors, dtype=np.int64)
        if m.ndim < 2:
            m = m.reshape(1, -1)
        if m.size and (m.min() < 0 or m.max() > 2):  # checked first: reducing is slower
            m = m % 3
        return zip(pack_bits(m == 1), pack_bits(m == 2))

    def _reduce(self, u1: int, u2: int) -> tuple[int, int]:
        """The planes of u minus the pivot rows that clear its lowest bits in turn."""
        pivots = self._pivots
        while u := u1 | u2:
            low = u & -u
            piv = pivots.get(low)
            if piv is None:
                break
            v1, v2 = piv
            if u1 & low:  # u is 1 at the key: add -v, whose planes are swapped
                v1, v2 = v2, v1
            t = (u1 | v2) ^ (u2 | v1)
            u1, u2 = (u2 | v2) ^ t, (u1 | v1) ^ t
        return u1, u2

    def contains(self, vec) -> bool:
        return all(self._reduce(u1, u2) == (0, 0) for u1, u2 in self._planes(vec))

    def add(self, vectors) -> int:
        """Absorb the rows of a 2-D array-like (or one vector); returns how many grew the span."""
        pivots = self._pivots
        before = len(pivots)
        for u1, u2 in self._planes(vectors):
            u1, u2 = self._reduce(u1, u2)
            if u := u1 | u2:
                low = u & -u
                if u2 & low:  # scaled by 2 to be 1 at the key
                    u1, u2 = u2, u1
                pivots[low] = (u1, u2)
        return len(pivots) - before


_WORDS = (np.int8, np.int16, np.int32)
_MIN_UPDATES = 8  # a word fits this many updates between reductions (module docstring)


class SpanTrackerModP:
    """Incrementally tracked span of equal-length vectors over F_p, pivots normalized."""

    __slots__ = ("modulus", "_pivots", "_word", "_word_max")

    def __init__(self, modulus: int):
        check_modulus(modulus)
        self.modulus = modulus
        self._pivots: dict[int, np.ndarray] = {}  # pivot column -> row, in the word
        need = modulus + _MIN_UPDATES * (modulus - 1) ** 2
        self._word = next((w for w in _WORDS if np.iinfo(w).max >= need), np.int64)
        self._word_max = int(np.iinfo(self._word).max)

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def _eliminate(self, vectors) -> tuple[np.ndarray, list[int]]:
        """Row echelon of the vectors against the pivot rows: the new pivot
        rows, normalized, and their columns."""
        p, pivots = self.modulus, self._pivots
        m = np.array(vectors, dtype=np.int64, order="C", ndmin=2)
        if m.size and (m.min() < 0 or m.max() >= p):  # checked first: reducing is slower
            m %= p
        m = m.astype(self._word, copy=False)
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
            if bound > self._word_max - step:
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
