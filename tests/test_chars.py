"""The batched char kernels against their per-instance twins, on every
nonempty family of 2^[n] for n <= 3 and on sampled families at n = 5."""

import math
import random
from itertools import chain

import numpy as np
import pytest

from sumsetvc import ParameterError, SetFamily, embed_01, int_deg, pairwise_family, vc_dim
from sumsetvc.chars import (
    _coord_masks,
    _cube_masks,
    _images,
    _subset_sums,
    char_members,
    int_degs,
    pairwise_chars,
    popcounts,
    vc_dims,
)
from sumsetvc.interpolation import _grade_columns

from oracles import naive_vc_dim

SMALL_N = (1, 2, 3)


def families(n):
    chars = np.arange(1, 1 << (1 << n), dtype=np.int64)
    return chars, [SetFamily(n, char_members(c, n)) for c in chars.tolist()]


def test_char_members_lists_the_set_bits():
    assert char_members(0b1010_0001, 3) == (0, 5, 7)
    assert char_members(1, 1) == (0,)
    assert char_members(0, 2) == ()


def test_popcounts_match_bit_count():
    rng = random.Random(3)
    values = [0, 1, (1 << 32) - 1, 1 << 31, 0x5555_5555, 0xAAAA_AAAA] + [rng.randrange(1 << 32) for _ in range(500)]
    assert popcounts(np.array(values, dtype=np.int64)).tolist() == [v.bit_count() for v in values]


def bits(n, keep):
    return sum(1 << m for m in range(1 << n) if keep(m))


@pytest.mark.parametrize("n", range(1, 13))
def test_coord_masks_hold_the_points_with_coordinate_j_clear(n):
    assert _coord_masks(n) == tuple(bits(n, lambda m: not m >> j & 1) for j in range(n))


@pytest.mark.parametrize("n", range(1, 8))
def test_subset_sums_of_one_bit_are_its_supersets(n):
    for s in range(1 << n):
        assert _subset_sums(1 << s, n) == bits(n, lambda m: s & ~m == 0)


def test_cube_masks_are_the_superset_masks_of_each_grade():
    for n in range(1, 6):
        grades = _cube_masks(n)
        assert [len(g) for g in grades] == [math.comb(n, d) for d in range(n + 1)]
        columns = _grade_columns(2, n, tuple(range(1 << n)))
        for d, grade in enumerate(grades):
            assert sorted(grade) == sorted(_subset_sums(1 << s, n) for s in range(1 << n) if s.bit_count() == d)
            assert grade == tuple(chain.from_iterable(columns(d)))


@pytest.mark.parametrize("n", range(6, 10))
def test_sym_diff_images_translate_python_ints_past_int64(n):
    rng = random.Random(n)
    values = [0, (1 << (1 << n)) - 1, 1 << ((1 << n) - 1), rng.getrandbits(1 << n)]
    imgs = _images(np.array(values, dtype=object), n, "sym_diff")
    assert imgs.shape == (1 << n, len(values))
    for t, row in enumerate(imgs.tolist()):
        assert all(type(r) is int for r in row)
        assert row == [bits(n, lambda m: v >> (m ^ t) & 1) for v in values]


@pytest.mark.parametrize("n", SMALL_N)
def test_intersect_images_are_the_traces(n):
    # vc_dims rests on this: row Y is the char of the trace {S ∩ Y : S in A}
    chars, _ = families(n)
    imgs = _images(chars, n, "intersect")
    for i, char in enumerate(chars.tolist()):
        for y in range(1 << n):
            assert imgs[y, i] == sum({1 << (m & y) for m in char_members(char, n)})


@pytest.mark.parametrize("n", SMALL_N)
def test_vc_dims_matches_vc_dim(n):
    chars, fams = families(n)
    got = vc_dims(chars, n).tolist()
    assert got == [vc_dim(f) for f in fams]
    assert got == [naive_vc_dim(f.members, n) for f in fams]


@pytest.mark.parametrize("n", SMALL_N)
@pytest.mark.parametrize("op", ["sym_diff", "intersect", "union"])
def test_pairwise_chars_matches_pairwise_family(n, op):
    chars, fams = families(n)
    # B = A, and B = the family of the reversed char order, so B differs from A
    for b_chars, b_fams in ((chars, fams), (chars[::-1].copy(), fams[::-1])):
        got = pairwise_chars(chars, b_chars, n, op).tolist()
        want = [pairwise_family(a, b, op).members for a, b in zip(fams, b_fams)]
        assert [char_members(c, n) for c in got] == want


@pytest.mark.parametrize("n", SMALL_N)
def test_int_degs_matches_int_deg(n):
    chars, fams = families(n)
    assert int_degs(chars, n).tolist() == [int_deg(embed_01(f, 2)) for f in fams]


def test_kernels_match_at_n5_on_sampled_chars():
    # n = 5 chars use 32 bits, and pairwise images shift them up to 16 more;
    # the edges: the full family, the single members 0 and 31, and the
    # families of all sets of size <= d, which reach Sauer's bound
    rng = random.Random(5)
    sample = [(1 << 32) - 1, 1, 1 << 31] + [bits(5, lambda m: m.bit_count() <= d) for d in range(6)]
    sample += [rng.randrange(1, 1 << 32) for _ in range(60)]
    sample += [rng.randrange(1 << 32) & rng.randrange(1 << 32) | 1 << rng.randrange(32) for _ in range(60)]
    chars = np.array(sample, dtype=np.int64)
    fams = [SetFamily(5, char_members(c, 5)) for c in sample]
    assert vc_dims(chars, 5).tolist() == [vc_dim(f) for f in fams]
    assert int_degs(chars, 5).tolist() == [int_deg(embed_01(f, 2)) for f in fams]
    for op in ("sym_diff", "intersect", "union"):
        got = pairwise_chars(chars, chars[::-1].copy(), 5, op).tolist()
        assert [char_members(c, 5) for c in got] == [pairwise_family(a, b, op).members for a, b in zip(fams, fams[::-1])]


def test_kernels_take_one_chunk_at_a_time():
    # a kernel's answer for a char does not depend on the rest of its array
    chars, _ = families(3)
    for kernel in (vc_dims, int_degs, lambda c, n: pairwise_chars(c, c, n, "sym_diff")):
        whole = kernel(chars, 3)
        parts = np.concatenate([kernel(chars[i : i + 7], 3) for i in range(0, len(chars), 7)])
        assert whole.tolist() == parts.tolist()


def test_kernels_reject_n_outside_int64_chars():
    chars = np.arange(1, 4, dtype=np.int64)
    for n in (0, 6):
        with pytest.raises(ParameterError, match="char kernels need 1 <= n <= 5"):
            vc_dims(chars, n)
        with pytest.raises(ParameterError, match="char kernels need 1 <= n <= 5"):
            int_degs(chars, n)
        with pytest.raises(ParameterError, match="char kernels need 1 <= n <= 5"):
            pairwise_chars(chars, chars, n, "union")
    with pytest.raises(ParameterError, match="unknown pairwise op"):
        pairwise_chars(chars, chars, 2, "xor")
