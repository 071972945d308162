import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetvc import FieldMatrix, ParameterError, PointSet, ReducedPolynomial, rank
from sumsetvc.clp import clp_matrix
from sumsetvc.families import encode_point
from sumsetvc.linalg import (
    SpanTrackerGF2,
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
            tracker = SpanTrackerModP(p)
            for j in range(cols):
                tracker.add(m.array[:, j])
            assert tracker.rank == rank(m)
            # every column reduces to zero once the span is built
            for j in range(cols):
                assert tracker.contains(m.array[:, j])


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


@pytest.mark.parametrize("p", [3, 65537, 2147483647, 3037000493])
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


@pytest.mark.parametrize("p,n", [(3, 4), (5, 3)])
def test_clp_matrix_rank_matches_naive_rank(p, n):
    gen = SplitMix64(10 * p + n)
    for d in (1, 3, 5):
        m = clp_matrix(random_polynomial(p, n, d, gen))
        assert rank(m) == naive_rank(m.array.tolist(), p)


ORACLE_PRIMES = (2, 3, 5, 7, 65537, 2147483647, 3037000493)


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
    tracker = SpanTrackerModP(p)
    for j in range(cols):
        tracker.add(m.array[:, j])
    assert tracker.rank == expected
    # the columns fed as consecutive blocks: each block is reduced against the
    # pivot rows of the earlier ones, so the delayed reduction spans blocks
    cuts = sorted(data.draw(st.lists(st.integers(1, cols), max_size=3), label="cuts"))
    tracker = SpanTrackerModP(p)
    for start, stop in zip([0] + cuts, cuts + [cols]):
        tracker.add(m.array[:, start:stop].T)
        prefix = [row[:stop] for row in matrix]
        assert tracker.rank == naive_rank(prefix, p)
        vec = data.draw(st.lists(residues, min_size=rows, max_size=rows), label="vec")
        inside = naive_rank([row + [x] for row, x in zip(prefix, vec)], p) == tracker.rank
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
