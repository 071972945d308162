import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetvc import FieldMatrix, ParameterError, PointSet, ReducedPolynomial, rank
from sumsetvc.clp import clp_matrix
from sumsetvc.families import encode_point
from sumsetvc.linalg import (
    SpanTrackerGF2,
    SpanTrackerGF3,
    SpanTrackerModP,
    pack_gf2_rows,
    rank_gf2_packed,
)
from sumsetvc.polynomials import (
    CUBE_MATERIALIZE_LIMIT,
    random_polynomial,
    values_at,
    values_on_cube,
)
from sumsetvc.sampling import SplitMix64

from oracles import naive_rank


def block_trackers(p):
    """A fresh tracker of each kernel over F_p that takes 2-D blocks: the
    mod-p column sweep, and at p = 3 also the bit planes it is the oracle of."""
    return [SpanTrackerModP(p), SpanTrackerGF3()] if p == 3 else [SpanTrackerModP(p)]


def random_matrix(p, rows, cols, gen):
    return FieldMatrix(
        p, np.array([[gen.below(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64)
    )


def test_rank_examples():
    for p in (2, 3, 5):
        for k in (1, 3, 6):
            assert rank(FieldMatrix.identity(p, k)) == k
    assert rank(FieldMatrix(2, np.ones((4, 4), dtype=np.int64))) == 1
    assert rank(FieldMatrix.from_rows(5, [[1, 2], [2, 4]])) == 1


def test_rank_zero_and_rectangular():
    assert rank(FieldMatrix(3, np.zeros((3, 5), dtype=np.int64))) == 0
    m = FieldMatrix.from_rows(2, [[1, 0, 1], [0, 1, 1], [1, 1, 0]])
    assert rank(m) == 2  # third row is the sum of the first two
    for p in (2, 3):
        for shape in ((0, 3), (3, 0), (0, 0)):
            assert rank(FieldMatrix(p, np.zeros(shape, dtype=np.int64))) == 0


def test_matrix_validation():
    with pytest.raises(ParameterError):
        FieldMatrix(6, np.zeros((2, 2), dtype=np.int64))
    with pytest.raises(ParameterError):
        FieldMatrix(3, np.zeros(4, dtype=np.int64))
    # entries reduce mod p on construction
    m = FieldMatrix.from_rows(3, [[4, -1]])
    assert m.array.tolist() == [[1, 2]]


def test_packed_path_requires_p2():
    with pytest.raises(ParameterError):
        pack_gf2_rows(FieldMatrix.identity(3, 2))


def test_packed_equals_generic_on_seeded_matrices():
    gen = SplitMix64(99)
    for _ in range(100):
        rows = 1 + gen.below(24)
        cols = 1 + gen.below(24)
        m = random_matrix(2, rows, cols, gen)
        assert rank_gf2_packed(pack_gf2_rows(m)) == SpanTrackerModP(2).add(m.array)


def test_rank_invariant_under_row_permutation_and_transpose():
    for p in (2, 3, 5):
        gen = SplitMix64(1000 + p)
        for _ in range(100):
            rows = 1 + gen.below(10)
            cols = 1 + gen.below(10)
            m = random_matrix(p, rows, cols, gen)
            base = rank(m)
            perm = np.array(
                sorted(range(rows), key=lambda i: gen.next_uint64()), dtype=np.int64
            )
            assert rank(FieldMatrix(p, m.array[perm])) == base
            assert rank(FieldMatrix(p, m.array.T)) == base


def test_pack_gf2_rows_round_trip():
    m = FieldMatrix.from_rows(2, [[1, 0, 1], [0, 0, 1]])
    assert pack_gf2_rows(m) == [0b101, 0b100]
    assert rank_gf2_packed([0b101, 0b100]) == 2
    assert rank_gf2_packed([0b101, 0b101, 0b000]) == 1


def test_span_tracker_gf2_membership():
    tracker = SpanTrackerGF2()
    assert tracker.add([0b0011]) == 1
    assert tracker.add([0b0101]) == 1
    assert tracker.add([0b0110]) == 0  # xor of the first two
    assert tracker.rank == 2
    assert tracker.contains(0b0000)
    assert tracker.contains(0b0110)
    assert not tracker.contains(0b1000)


def test_span_tracker_modp_matches_matrix_rank():
    gen = SplitMix64(7)
    for p in (3, 5):
        for _ in range(25):
            rows = 1 + gen.below(8)
            cols = 1 + gen.below(8)
            m = random_matrix(p, rows, cols, gen)
            for tracker in block_trackers(p):
                for j in range(cols):
                    tracker.add(m.array[:, j])
                assert tracker.rank == rank(m)
                # every column reduces to zero once the span is built
                for j in range(cols):
                    assert tracker.contains(m.array[:, j])


def test_span_tracker_modp_eliminates_a_fortran_block_in_c_order():
    # a column-major block is copied to row-major, so row updates run contiguous
    for p, n, d in ((3, 3, 4), (5, 2, 5)):
        poly = random_polynomial(p, n, d, SplitMix64(p + d))
        block = clp_matrix(poly).array
        trackers = [SpanTrackerModP(p), SpanTrackerModP(p)]
        counts = [t.add(m) for t, m in zip(trackers, (block, np.asfortranarray(block)))]
        assert counts[0] == counts[1] > 0
        assert trackers[0]._pivots.keys() == trackers[1]._pivots.keys()
        for c, row in trackers[0]._pivots.items():
            assert np.array_equal(row, trackers[1]._pivots[c])
        assert SpanTrackerModP(p)._eliminate(np.asfortranarray(block))[0].flags.c_contiguous


def test_modulus_boundary_for_exact_int64_products():
    largest = 3037000493  # the largest prime p with p * p < 2**63
    gen = SplitMix64(4)
    for _ in range(20):
        # u v^T with random 5x2 and 2x5 factors has rank 2 (all but surely)
        u = [[gen.below(largest) for _ in range(2)] for _ in range(5)]
        v = [[gen.below(largest) for _ in range(5)] for _ in range(2)]
        rows = [
            [(u[i][0] * v[0][j] + u[i][1] * v[1][j]) % largest for j in range(5)] for i in range(5)
        ]
        m = FieldMatrix.from_rows(largest, rows)
        assert rank(m) == 2
        tracker = SpanTrackerModP(largest)
        for j in range(5):
            tracker.add(m.array[:, j])
        assert tracker.rank == 2
        # entries outside 0..p-1 are taken mod p before the first update
        assert SpanTrackerModP(largest).add(m.array - largest * 2**30) == 2
    too_large = 3037000507  # the next prime
    with pytest.raises(ParameterError):
        FieldMatrix.identity(too_large, 2)
    with pytest.raises(ParameterError):
        PointSet(too_large, 1, (0,))
    with pytest.raises(ParameterError):
        ReducedPolynomial.constant(too_large, 1, 1)


# The largest prime of each word SpanTrackerModP picks and the next prime, so
# both sides of every word boundary: the words' own (3/5, 61/67, 16381/16411)
# and those of one update per reduction (11/13, 181/191, 46337/46349).
WORD_BOUNDARY_PRIMES = (3, 5, 11, 13, 61, 67, 181, 191, 16381, 16411, 46337, 46349)


@pytest.mark.parametrize("p", sorted({*WORD_BOUNDARY_PRIMES, 65537, 2147483647, 3037000493}))
def test_rank_of_low_rank_products_matches_naive_rank(p):
    # u v with an 8..16 x k and a k x 8..16 factor has rank k (all but surely),
    # below the matrix side, so the trailing block takes k updates. Left
    # unreduced, it can leave int64 after two updates at 3037000493 and after
    # three at 2147483647; after the last update its entries are 0 mod p but
    # not 0, so a residue read unreduced shows as a spurious pivot.
    gen = SplitMix64(p)
    for _ in range(12):
        rows, cols = 8 + gen.below(9), 8 + gen.below(9)
        k = 1 + gen.below(min(rows, cols) - 1)
        u = [[gen.below(p) for _ in range(k)] for _ in range(rows)]
        v = [[gen.below(p) for _ in range(cols)] for _ in range(k)]
        matrix = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*v)] for row in u]
        expected = naive_rank(matrix, p)
        assert rank(FieldMatrix.from_rows(p, matrix)) == expected
        # fed in blocks of three rows, later blocks take updates from stored rows
        tracker = SpanTrackerModP(p)
        for start in range(0, rows, 3):
            tracker.add(matrix[start : start + 3])
        assert tracker.rank == expected


@pytest.mark.parametrize(
    "largest,next_prime,word,wider",
    [(3, 5, np.int8, np.int16), (61, 67, np.int16, np.int32), (16381, 16411, np.int32, np.int64)],
)
def test_tracker_word_is_the_narrowest_that_fits_eight_updates(largest, next_prime, word, wider):
    for p, expected in ((largest, word), (next_prime, wider)):
        tracker = SpanTrackerModP(p)
        assert tracker._word is expected
        assert tracker._word_max == np.iinfo(expected).max
    assert largest + 8 * (largest - 1) ** 2 <= np.iinfo(word).max
    assert next_prime + 8 * (next_prime - 1) ** 2 > np.iinfo(word).max


@pytest.mark.parametrize("p", WORD_BOUNDARY_PRIMES + (2, 7, 3037000493))
def test_stored_pivot_rows_are_normalized_residues_in_the_word(p):
    gen = SplitMix64(31 * p)
    tracker = SpanTrackerModP(p)
    for _ in range(4):  # later blocks are reduced against the rows stored before
        block = [[gen.below(p) for _ in range(12)] for _ in range(1 + gen.below(5))]
        tracker.add(block)
    assert tracker.rank > 0
    for c, row in tracker._pivots.items():
        assert row.dtype == tracker._word and row.shape == (12,)
        assert row[c] == 1 and not row[:c].any()
        assert row.min() >= 0 and row.max() < p


def test_gf3_stored_pivots_are_disjoint_planes_normalized_at_their_key():
    gen = SplitMix64(33)
    tracker = SpanTrackerGF3()
    for _ in range(6):  # later blocks are reduced against the rows stored before
        block = [[gen.below(3) for _ in range(40)] for _ in range(1 + gen.below(12))]
        tracker.add(block)
    assert 0 < tracker.rank <= 40
    for key, (ones, twos) in tracker._pivots.items():
        assert key.bit_count() == 1
        assert ones & twos == 0
        assert ones & key  # 1 at the key
        assert (ones | twos) & (key - 1) == 0  # nothing below the key
        assert (ones | twos) >> 40 == 0


def test_gf3_tracker_matches_the_modp_sweep_on_any_integers_and_shapes():
    gen = SplitMix64(3)
    block = np.array([[gen.below(3) for _ in range(9)] for _ in range(7)], dtype=np.int64)
    shifts = np.array([[3 * (gen.below(2001) - 1000) for _ in range(9)] for _ in range(7)])
    assert block.min() >= 0 and shifts.min() < 0 < shifts.max()
    vec = [gen.below(3) for _ in range(9)]
    for entries in (block, block + shifts, block - 3 * 2**40, (block + shifts).tolist()):
        gf3, modp = SpanTrackerGF3(), SpanTrackerModP(3)
        assert gf3.add(entries) == modp.add(entries) == gf3.rank == modp.rank
        assert all(gf3.contains(row) for row in entries)
        assert gf3.contains(vec) == modp.contains(vec)
        assert gf3.contains([x - 6 for x in vec]) == modp.contains(vec)
    # blocks of no rows, and vectors with no entries, add nothing and are inside
    gf3, modp = SpanTrackerGF3(), SpanTrackerModP(3)
    gf3.add(block[:3])
    modp.add(block[:3])
    for empty in (block[:0], np.zeros((0, 9), dtype=np.int64), []):
        assert gf3.add(empty) == modp.add(empty) == 0
        assert gf3.rank == modp.rank
        assert gf3.contains(empty) and modp.contains(empty)
    for shape in ((0, 0), (4, 0), (0,)):
        no_columns = np.zeros(shape, dtype=np.int64)
        assert SpanTrackerGF3().add(no_columns) == SpanTrackerModP(3).add(no_columns) == 0
        assert SpanTrackerGF3().contains(no_columns)
    # one vector, as a 1-D array or a list, is one row
    gf3, modp = SpanTrackerGF3(), SpanTrackerModP(3)
    for row in (block[0], block[1].tolist(), block[0] + block[1], (2 * block[0]).tolist()):
        assert gf3.add(row) == modp.add(row)
        assert gf3.rank == modp.rank
    assert gf3.rank == 2
    # a block is inside only if every row is
    gf3, modp = SpanTrackerGF3(), SpanTrackerModP(3)
    gf3.add(block[0])
    modp.add(block[0])
    assert gf3.contains(block[:1]) and modp.contains(block[:1])
    assert not gf3.contains(block[:2]) and not modp.contains(block[:2])


@pytest.mark.parametrize("p", WORD_BOUNDARY_PRIMES)
def test_updates_that_each_move_an_entry_the_most_stay_exact(p):
    # Pivot rows e_i + (p-1) e_k and a last row with p - 1 at every pivot: each
    # of the k updates takes (p-1)^2, the most one update moves an entry, off
    # the last row's final entry x, so it leaves a narrow word unless reduced
    # in time. Over F_p that entry ends at x - k, as (p-1)^2 = 1.
    k = 40
    block = np.zeros((k + 1, k + 1), dtype=np.int64)
    block[:k, :k] = np.eye(k, dtype=np.int64)
    block[:k, k] = block[k, :k] = p - 1
    for x, expected in ((k % p, k), ((k + 1) % p, k + 1)):
        block[k, k] = x
        assert rank(FieldMatrix(p, block)) == expected
        tracker = SpanTrackerModP(p)
        tracker.add(block[:k])
        assert tracker.add(block[k:]) == expected - k  # reduced against the stored rows


def test_full_rank_f3_blocks_match_naive_rank():
    # L U with unit triangular factors is invertible. Its 96 columns give up to
    # 96 updates per block, so the int8 word (31 updates between reductions at
    # p = 3) is reduced several times within a block and across blocks.
    p, side = 3, 96
    gen = SplitMix64(96)
    lower = np.array([[gen.below(p) if j < i else int(i == j) for j in range(side)] for i in range(side)])
    upper = np.array([[gen.below(p) if j > i else int(i == j) for j in range(side)] for i in range(side)])
    matrix = lower @ upper % p
    assert SpanTrackerModP(p)._word is np.int8
    assert naive_rank(matrix.tolist(), p) == side
    assert rank(FieldMatrix(p, matrix)) == side
    for tracker in block_trackers(p):
        for start in range(0, side, 40):
            tracker.add(matrix[start : start + 40])
            assert tracker.rank == min(start + 40, side)
        assert all(tracker.contains(row) for row in matrix)


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3)])
def test_clp_matrix_rank_matches_naive_rank(p, n):
    gen = SplitMix64(10 * p + n)
    for d in (1, 3, 5):
        m = clp_matrix(random_polynomial(p, n, d, gen))
        assert rank(m) == naive_rank(m.array.tolist(), p)


ORACLE_PRIMES = tuple(sorted({2, 7, *WORD_BOUNDARY_PRIMES, 65537, 2147483647, 3037000493}))


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_kernels_match_oracles_at_random_primes(data):
    p = data.draw(st.sampled_from(ORACLE_PRIMES), label="p")
    residues = st.integers(0, p - 1)
    # a product of rows x k and k x cols factors, so ranks below full occur at every p
    rows, k, cols = (data.draw(st.integers(1, 5)) for _ in range(3))
    u = data.draw(st.lists(st.lists(residues, min_size=k, max_size=k), min_size=rows, max_size=rows))
    v = data.draw(st.lists(st.lists(residues, min_size=cols, max_size=cols), min_size=k, max_size=k))
    matrix = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*v)] for row in u]
    expected = naive_rank(matrix, p)
    m = FieldMatrix.from_rows(p, matrix)
    assert rank(m) == expected
    for tracker in block_trackers(p):
        for j in range(cols):
            tracker.add(m.array[:, j])
        assert tracker.rank == expected
    # the columns fed as consecutive blocks: each block is reduced against the
    # pivot rows of the earlier ones, so the delayed reduction spans blocks
    cuts = sorted(data.draw(st.lists(st.integers(1, cols), max_size=3), label="cuts"))
    trackers = block_trackers(p)
    for start, stop in zip([0] + cuts, cuts + [cols]):
        prefix = [row[:stop] for row in matrix]
        spanned = naive_rank(prefix, p)
        vec = data.draw(st.lists(residues, min_size=rows, max_size=rows), label="vec")
        inside = naive_rank([row + [x] for row, x in zip(prefix, vec)], p) == spanned
        for tracker in trackers:
            tracker.add(m.array[:, start:stop].T)
            assert tracker.rank == spanned
            assert tracker.contains(vec) == inside

    n = data.draw(st.integers(1, 2), label="n")
    vectors = st.tuples(*[residues] * n)
    poly = ReducedPolynomial(p, n, data.draw(st.dictionaries(vectors, residues, max_size=4)))
    points = data.draw(st.lists(vectors, min_size=1, max_size=6))
    values = [poly.evaluate(point) for point in points]
    columns = [np.array(column, dtype=np.int64) for column in zip(*points)]
    assert values_at(poly, columns).tolist() == values
    if p**n <= CUBE_MATERIALIZE_LIMIT:
        cube = values_on_cube(poly)
        assert [int(cube[encode_point(point, p)]) for point in points] == values
