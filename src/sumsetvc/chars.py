"""Batched kernels over families of 2^[n] given by their characteristic integers.

Bit space. A function on F_2^n (equivalently, a family of subsets of [n]) is
stored as an integer with bit m equal to its value at the point, or member,
with bitmask m. This module defines the layout once for the whole package:

    _coord_masks(n)[j]  the points with coordinate j equal to 0 (bit j of m clear)
    _subset_sums(v, n)  bit m becomes the XOR of the bits of v at the subsets of m,
                        so the coefficients of the monomials x^S give the values
    _images(v, n, op)   row t is v under m -> m op t; for sym_diff, the translate
                        by t, which swaps the two halves of every coordinate in t;
                        for intersect, the trace {S ∩ t : S in v} of the family
    _cube_masks(n)      the GF(2) monomial columns: bit m of x^S's column is set
                        iff S ⊆ m

A family A is its char. The exhaustive scans enumerate families as the chars
1 .. 2**(2**n) - 1, and these kernels evaluate a whole int64 array of chars
at once, so n <= CHAR_MAX_N (2**5 member bits fit in int64). Each kernel is
the array twin of a per-instance kernel, which stays the reference the
tests compare it with:

    vc_dims         vc.vc_dim: Y is shattered iff its trace is the subcube 2^Y
    pairwise_chars  families.pairwise_family
    int_degs        interpolation.int_deg of the 0/1 embedding in F_2^n

The masks a kernel needs depend on n only; they are built on first use.
`_images` also takes an object array of Python ints for any n; `clp` builds
the F_2 coefficient rows of a sum matrix from `_coord_masks` the same way.

VC table. At n <= VC_TABLE_MAX_N = 4 the char space has at most 2**16
members, and every pairwise family of a char lies in it too. So there
`vc_dims` is a gather from `_vc_table(n)`: the shattering kernel `_vc_dims`
run once over every char 0 .. 2**(2**n) - 1, in slices of 1024, and kept as
a read-only int8 row (64 KiB at n = 4), built on the first call at that n.
At n = 5 (2**32 chars) `vc_dims` runs `_vc_dims` on its array directly.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .families import PAIRWISE_OPS, encode_point
from .polynomials import _grade

CHAR_MAX_N = 5
# n <= VC_TABLE_MAX_N: at most 2**16 chars, so vc_dims reads one table of them all
VC_TABLE_MAX_N = 4
_TABLE_SLICE = 1 << 10


def char_members(char: int, n: int) -> tuple[int, ...]:
    """The members of the family with this char, ascending."""
    return tuple(m for m in range(1 << n) if char >> m & 1)


def popcounts(chars: np.ndarray) -> np.ndarray:
    """|A| for every char in the array: its number of set bits.

    A branch-free bit count for 0 <= char < 2**32, which holds every char
    with n <= CHAR_MAX_N; it needs no numpy 2 `bitwise_count`.
    """
    x = chars - ((chars >> 1) & 0x55555555)
    x = (x & 0x33333333) + ((x >> 2) & 0x33333333)
    x = (x + (x >> 4)) & 0x0F0F0F0F
    return ((x * 0x01010101) & 0xFFFFFFFF) >> 24


def _positions(n: int) -> range:
    if not 1 <= n <= CHAR_MAX_N:
        raise ParameterError(f"char kernels need 1 <= n <= {CHAR_MAX_N}, got {n}")
    return range(1 << n)


@lru_cache(maxsize=16)
def _coord_masks(n: int) -> tuple[int, ...]:
    """For each coordinate j, the char of the masks m with bit j clear.

    The mask repeats 2**j ones and 2**j zeros: that block times the
    repunit in base 2**(2**(j+1)) spanning the 2**n bits.
    """
    full = (1 << (1 << n)) - 1
    return tuple(full // ((1 << (2 << j)) - 1) * ((1 << (1 << j)) - 1) for j in range(n))


def _subset_sums(v: int, n: int) -> int:
    """The subset-sum (Moebius) transform over F_2: bit m of the result is
    the XOR of bit S of v over every S ⊆ m, one coordinate at a time."""
    for j, low in enumerate(_coord_masks(n)):
        v ^= (v & low) << (1 << j)
    return v


def _images(chars: np.ndarray, n: int, op: str) -> np.ndarray:
    """Row t holds the image of every char under m -> m op t.

    m op t changes each coordinate of m on its own, so the rows are built one
    coordinate j at a time: step j doubles them, and the new second half has
    bit j of t set. For xor that half swaps the halves of coordinate j; for
    and, the first half folds coordinate j down to 0; for or, the second half
    folds it up to 1. It checks no n: an object array of Python ints takes
    any n.
    """
    full = (1 << (1 << n)) - 1
    imgs = chars[None, :]
    for j, low in enumerate(_coord_masks(n)):
        s = 1 << j
        if op == "sym_diff":
            imgs = np.concatenate((imgs, ((imgs & low) << s) | ((imgs >> s) & low)))
        elif op == "intersect":
            imgs = np.concatenate(((imgs | (imgs >> s)) & low, imgs))
        else:
            imgs = np.concatenate((imgs, (imgs | (imgs << s)) & (full ^ low)))
    return imgs


@lru_cache(maxsize=None)
def _subcubes(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row Y: the char of 2^Y, which is the trace of the full family on Y; and |Y|."""
    sizes = np.array([y.bit_count() for y in _positions(n)], dtype=np.int64)
    return _images(np.array([(1 << (1 << n)) - 1], dtype=np.int64), n, "intersect"), sizes


def _vc_dims(chars: np.ndarray, n: int) -> np.ndarray:
    """The shattering kernel: the largest shattered |Y| of every char.

    Row Y of the intersect images is the char of the trace {S ∩ Y : S in A},
    and Y is shattered iff that trace is all of 2^Y.
    """
    cubes, sizes = _subcubes(n)
    shattered = _images(chars, n, "intersect") == cubes
    return (shattered * sizes[:, None]).max(axis=0)


@lru_cache(maxsize=None)
def _vc_table(n: int) -> np.ndarray:
    """Read-only int8 row: entry c is _vc_dims of char c, for the whole char
    space 0 .. 2**(2**n) - 1 (n <= VC_TABLE_MAX_N). It is filled _TABLE_SLICE
    chars at a time, and the images of a slice (128 KiB at n = 4) are smaller
    than those of one scan chunk, so building the table raises no peak."""
    table = np.empty(1 << (1 << n), dtype=np.int8)
    for low in range(0, len(table), _TABLE_SLICE):
        chars = np.arange(low, min(low + _TABLE_SLICE, len(table)), dtype=np.int64)
        table[low : low + len(chars)] = _vc_dims(chars, n)
    table.flags.writeable = False
    return table


def vc_dims(chars: np.ndarray, n: int) -> np.ndarray:
    """VC dimension of every family in the array, as int64.

    For n <= VC_TABLE_MAX_N it is a gather from _vc_table(n); at n = 5, the
    direct kernel. Every char must lie in 0 .. 2**(2**n) - 1: an index outside
    the table would wrap, or fail, instead of naming a family.
    """
    _positions(n)  # the range check
    if len(chars) and (chars.min() < 0 or chars.max() >> (1 << n)):
        raise ParameterError(f"chars at n = {n} need 0 <= char < 2**{1 << n}")
    if n <= VC_TABLE_MAX_N:
        return _vc_table(n)[chars].astype(np.int64)
    return _vc_dims(chars, n)


def pairwise_chars(a: np.ndarray, b: np.ndarray, n: int, op: str) -> np.ndarray:
    """Char of {S op T : S in A, T in B} for each pair of chars (a[i], b[i]):
    the OR, over t in B, of the image of A under m -> m op t."""
    if op not in PAIRWISE_OPS:
        raise ParameterError(f"unknown pairwise op {op!r}; expected one of {PAIRWISE_OPS}")
    t = np.array(_positions(n), dtype=np.int64)
    take = (b[None, :] >> t[:, None]) & 1
    return np.bitwise_or.reduce(_images(a, n, op) * take, axis=0)


@lru_cache(maxsize=None)
def _cube_masks(n: int) -> tuple[tuple[int, ...], ...]:
    """For each grade d, cube_mask(S) of the degree-d monomials x^S in
    canonical order: their GF(2) columns on all of F_2^n, bit m set iff S ⊆ m.
    The supersets of S are the subset sums of the one bit S."""
    _positions(n)  # the range check
    return tuple(
        tuple(_subset_sums(1 << encode_point(s, 2), n) for s in _grade(2, n, d))
        for d in range(n + 1)
    )


def int_degs(chars: np.ndarray, n: int) -> np.ndarray:
    """GF(2) interpolation degree of every family in the array.

    The monomial x^S restricted to A is the char-space vector char & cube_mask(S).
    Columns are absorbed grade by grade in canonical order into pivot slots
    piv[b], one per lowest set bit b; the answer is the first grade at which
    the rank reaches |A|.
    """
    grades = _cube_masks(n)
    rows = np.arange(len(chars))
    piv = np.zeros((1 << n, len(chars)), dtype=np.int64)
    rank = np.zeros(len(chars), dtype=np.int64)
    size = popcounts(chars)
    out = np.full(len(chars), -1, dtype=np.int64)
    for d, masks in enumerate(grades):
        for mask in masks:
            v = chars & mask
            # piv[b] has lowest bit b, so clearing bits in ascending order is
            # final; cube_mask(S) has lowest bit S, so no pivot below slot S
            # ever meets v
            start = (mask & -mask).bit_length() - 1
            for b, row in enumerate(piv[start:], start):
                v ^= row & -((v >> b) & 1)
            new = v != 0
            # v & -v is 2**slot, which float64 holds exactly: frexp gives slot + 1
            slot = np.frexp((v & -v).astype(np.float64))[1] - 1
            piv[slot[new], rows[new]] = v[new]
            rank += new
        out[(out < 0) & (rank == size)] = d
        if (out >= 0).all():
            break
    return out
