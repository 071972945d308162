from collections import Counter
from itertools import combinations, islice, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetvc import interpolation
from sumsetvc import (
    EmptyFamilyError,
    ParameterError,
    PartialFunction,
    PointSet,
    SetFamily,
    WitnessNotFoundError,
    deg_on_set,
    embed_01,
    evaluation_matrix,
    find_unshattered_witness,
    generate_family,
    int_deg,
    monomial_basis,
    represent_monomial,
    vc_dim,
)
from sumsetvc.families import ENCODING_LIMIT, FamilyKind, decode_point, encode_point
from sumsetvc.interpolation import _grade, _grade_columns
from sumsetvc.linalg import pack_bits
from sumsetvc.polynomials import monomial_values, point_digits
from sumsetvc.sampling import SplitMix64, sample_distinct

from oracles import brute_deg_on_set, brute_int_deg, naive_deg_on_set, naive_int_deg


def all_nonempty_families(n):
    for char in range(1, 1 << (1 << n)):
        yield SetFamily(n, tuple(m for m in range(1 << n) if char >> m & 1))


def full_cube(p, n):
    return PointSet(p, n, tuple(range(p**n)))


# --- evaluation_matrix --------------------------------------------------------


def test_evaluation_matrix_examples():
    origin = PointSet.from_points(2, 3, [0])
    m = evaluation_matrix(origin, monomial_basis(2, 3, 0))
    assert m.array.tolist() == [[1]]

    line = full_cube(2, 1)
    m = evaluation_matrix(line, monomial_basis(2, 1, 1))
    assert m.array.tolist() == [[1, 0], [1, 1]]

    ones = PointSet.from_points(3, 2, [4])  # the all-ones point of F_3^2
    assert decode_point(4, 3, 2) == (1, 1)
    m = evaluation_matrix(ones, monomial_basis(3, 2, 2))
    assert m.array.tolist() == [[1, 1, 1, 1, 1, 1]]


def test_evaluation_matrix_at_large_primes():
    gen = SplitMix64(8)
    for p, n, d in ((65537, 2, 3), (3037000493, 1, 4)):
        points = PointSet.from_points(p, n, [gen.below(p**n) for _ in range(6)] + [p**n - 1])
        basis = monomial_basis(p, n, d)
        m = evaluation_matrix(points, basis)
        for i, pt in enumerate(points.points):
            digits = decode_point(pt, p, n)
            for j, expvec in enumerate(basis.monomials):
                want = 1
                for x, e in zip(digits, expvec):
                    want = want * pow(x, e, p) % p
                assert m.array[i, j] == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_evaluation_matrix_matches_pow_at_random_primes(data):
    p = data.draw(st.sampled_from((3, 65537, 2147483647, 3037000493)), label="p")
    n = data.draw(st.integers(1, 2), label="n")
    d = data.draw(st.integers(0, 5), label="d")
    digit = st.one_of(st.integers(p - 3, p - 1), st.integers(0, p - 1))  # powers of residues near p
    vectors = data.draw(
        st.lists(st.tuples(*[digit] * n), min_size=1, max_size=5, unique=True), label="points"
    )
    encoded = [encode_point(v, p) for v in vectors]
    if p**n > ENCODING_LIMIT:
        with pytest.raises(ParameterError):
            PointSet.from_points(p, n, encoded)
        return
    domain = PointSet.from_points(p, n, encoded)
    basis = monomial_basis(p, n, d)
    m = evaluation_matrix(domain, basis)
    for i, pt in enumerate(domain.points):
        digits = decode_point(pt, p, n)
        for j, expvec in enumerate(basis.monomials):
            want = 1
            for x, e in zip(digits, expvec):
                want = want * pow(x, e, p) % p
            assert m.array[i, j] == want


def test_evaluation_matrix_dimension_mismatch():
    from sumsetvc import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        evaluation_matrix(full_cube(2, 2), monomial_basis(3, 2, 1))


# --- deg_on_set ------------------------------------------------------------------


def test_deg_on_set_examples():
    # constant one costs degree 0 on any domain
    dom = PointSet.from_points(3, 2, [0, 4, 7])
    assert deg_on_set(PartialFunction(dom, (1, 1, 1))) == 0

    # oracle-computed: the indicator of the all-ones point of F_2^2 needs degree 2
    square = full_cube(2, 2)
    assert deg_on_set(PartialFunction(square, (0, 0, 0, 1))) == 2

    # oracle-computed: (0, 1) on {00, 11} is realized at degree 1
    diag = PointSet.from_points(2, 2, [0, 3])
    assert deg_on_set(PartialFunction(diag, (0, 1))) == 1

    # x1 and x2, the first batch of grade 1, vanish on {0, e3}; x3 comes after them
    assert deg_on_set(PartialFunction(PointSet(3, 3, (0, 9)), (0, 1))) == 1


def test_deg_on_set_matches_brute_force_p2_n2_exhaustive():
    from itertools import product

    for char in range(1, 16):
        pts = tuple(i for i in range(4) if char >> i & 1)
        dom = PointSet(2, 2, pts)
        for values in product(range(2), repeat=len(pts)):
            f = PartialFunction(dom, values)
            assert deg_on_set(f) == brute_deg_on_set(pts, 2, 2, values)


def test_deg_on_set_matches_brute_force_seeded():
    gen = SplitMix64(31)
    for p, n, rounds in ((2, 3, 30), (3, 2, 20)):
        space = p**n
        for _ in range(rounds):
            size = 1 + gen.below(space)
            pts = tuple(sample_distinct(space, size, gen))
            values = tuple(gen.below(p) for _ in pts)
            f = PartialFunction(PointSet(p, n, pts), values)
            assert deg_on_set(f) == brute_deg_on_set(pts, p, n, values)


def test_partial_function_validation():
    dom = PointSet.from_points(3, 1, [0, 2])
    with pytest.raises(ParameterError):
        PartialFunction(dom, (0,))
    with pytest.raises(ParameterError):
        PartialFunction(dom, (0, 3))
    with pytest.raises(EmptyFamilyError):
        deg_on_set(PartialFunction(PointSet(2, 2, ()), ()))


# --- int_deg ----------------------------------------------------------------------


def test_int_deg_examples():
    assert int_deg(PointSet.from_points(5, 3, [17])) == 0
    for n in (1, 2, 3):
        assert int_deg(full_cube(2, n)) == n
    assert int_deg(PointSet.from_points(2, 2, [0, 3])) == 1
    # the first |X| = 2 columns of grade 1 vanish on these sets, so a batch of
    # grade 1 adds nothing before the one that spans
    assert int_deg(PointSet(3, 3, (0, 9))) == 1
    assert int_deg(PointSet(2, 3, (0, 4))) == 1


def test_int_deg_of_proper_subsets_is_below_n():
    for n in (1, 2, 3):
        space = 1 << n
        for char in range(1, (1 << space) - 1):  # proper nonempty subsets
            pts = tuple(i for i in range(space) if char >> i & 1)
            assert int_deg(PointSet(2, n, pts)) < n


def test_int_deg_matches_brute_force_sampled():
    gen = SplitMix64(47)
    for _ in range(40):
        size = 1 + gen.below(8)
        pts = tuple(sample_distinct(8, size, gen))
        assert int_deg(PointSet(2, 3, pts)) == brute_int_deg(pts, 2, 3)
    for _ in range(15):
        size = 1 + gen.below(9)
        pts = tuple(sample_distinct(9, size, gen))
        assert int_deg(PointSet(3, 2, pts)) == brute_int_deg(pts, 3, 2)


def test_int_deg_is_max_of_indicator_degrees_exhaustive():
    for n in (1, 2, 3):
        space = 1 << n
        for char in range(1, 1 << space):
            pts = tuple(i for i in range(space) if char >> i & 1)
            dom = PointSet(2, n, pts)
            indicators = []
            for i in range(len(pts)):
                values = tuple(1 if j == i else 0 for j in range(len(pts)))
                indicators.append(deg_on_set(PartialFunction(dom, values)))
            assert int_deg(dom) == max(indicators)


def test_int_deg_within_stated_range():
    gen = SplitMix64(3)
    for _ in range(20):
        size = 1 + gen.below(27)
        pts = tuple(sample_distinct(27, size, gen))
        d = int_deg(PointSet(3, 3, pts))
        assert 0 <= d <= 2 * 3


def test_int_deg_le_vc_dim_exhaustive():
    for n in (1, 2, 3):
        for fam in all_nonempty_families(n):
            assert int_deg(embed_01(fam, 2)) <= vc_dim(fam)


# --- graded span kernels -----------------------------------------------------------


def test_grade_is_the_degree_slice_of_the_basis():
    for p, n in ((2, 1), (2, 5), (3, 3), (5, 2), (7, 2), (11, 1)):
        full = monomial_basis(p, n, (p - 1) * n).monomials
        for d in range((p - 1) * n + 1):
            assert _grade(p, n, d) == tuple(e for e in full if sum(e) == d)


def test_gf2_bitmask_columns_equal_packed_monomial_values():
    gen = SplitMix64(61)
    for n in range(1, 9):
        for _ in range(4):
            size = 1 + gen.below(min(1 << n, 40))
            pts = tuple(sorted(sample_distinct(1 << n, size, gen)))
            columns = _grade_columns(2, n, pts)
            digits = point_digits(pts, 2, n)
            for d in range(n + 1):
                values = np.array([monomial_values(digits, e, 2) for e in _grade(2, n, d)])
                assert list(columns(d)) == pack_bits(values)


def test_graded_span_builds_only_the_grades_it_reaches(monkeypatch):
    # past the answer the grades of F_2^40 grow to ~10**11 monomials, and all
    # of F_3037000493's would not fit in memory: a wrong kernel fails here
    answers = {2: 1, 3037000493: 2}

    def bounded_grade(p, n, d):
        assert d <= answers[p], f"grade {d} of F_{p}^{n} built"
        return _grade(p, n, d)

    monkeypatch.setattr(interpolation, "_grade", bounded_grade)
    interpolation._int_deg_points.cache_clear()
    wide = PointSet(2, 40, (0, 1, 1 << 39))
    line = PointSet(3037000493, 1, (0, 1, 5))
    assert int_deg(wide) == 1
    assert deg_on_set(PartialFunction(wide, (0, 1, 1))) == 1
    assert int_deg(line) == 2
    assert deg_on_set(PartialFunction(line, (0, 1, 25))) == 2


# p with the largest n that keeps p**n small enough for the oracle
GRADED_SPAN_FIELDS = {2: 6, 3: 3, 5: 2, 7: 2, 65537: 1, 3037000493: 1}


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_graded_span_matches_oracle_at_random_primes(data):
    p = data.draw(st.sampled_from(sorted(GRADED_SPAN_FIELDS)), label="p")
    n = data.draw(st.integers(1, GRADED_SPAN_FIELDS[p]), label="n")
    pts = data.draw(
        st.lists(st.integers(0, p**n - 1), min_size=1, max_size=8, unique=True), label="points"
    )
    dom = PointSet.from_points(p, n, pts)
    values = data.draw(
        st.lists(st.integers(0, p - 1), min_size=len(dom.points), max_size=len(dom.points)),
        label="values",
    )
    assert int_deg(dom) == naive_int_deg(dom.points, p, n)
    assert deg_on_set(PartialFunction(dom, tuple(values))) == naive_deg_on_set(
        dom.points, p, n, values
    )


def hilbert_steps(p, n, points):
    """dH(d) for d = 0..s: the rank each grade of _graded_span adds on the points."""
    s = (p - 1) * n
    ranks = [tracker.rank for _, tracker in islice(interpolation._graded_span(p, n, points), s + 1)]
    return [r - q for r, q in zip(ranks, [0] + ranks)]


def cube_steps(p, n):
    """dH_cube(d) for d = 0..s: reduced monomials of degree d, counted directly."""
    counts = Counter(sum(e) for e in product(range(p), repeat=n))
    return [counts[d] for d in range((p - 1) * n + 1)]


def complement(p, n, points):
    members = set(points)
    return tuple(x for x in range(p**n) if x not in members)


def assert_linked(p, n, points):
    s = (p - 1) * n
    steps_x = hilbert_steps(p, n, points)
    steps_y = hilbert_steps(p, n, complement(p, n, points))
    cube = cube_steps(p, n)
    for d in range(s + 1):
        assert steps_x[d] + steps_y[s - d] == cube[d], d


# the fields of GRADED_SPAN_FIELDS small enough for the oracle on half a cube
LINKAGE_FIELDS = [
    (p, n) for p, top in GRADED_SPAN_FIELDS.items() for n in range(1, top + 1) if p**n <= 81
]


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_int_deg_of_a_large_set_matches_oracle_and_linkage(data):
    p, n = data.draw(st.sampled_from(LINKAGE_FIELDS), label="field")
    size = p**n
    rest = data.draw(
        st.lists(st.integers(0, size - 1), max_size=(size - 1) // 2, unique=True), label="complement"
    )
    pts = complement(p, n, rest)
    assert 2 * len(pts) > size
    assert int_deg(PointSet(p, n, pts)) == naive_int_deg(pts, p, n)
    assert_linked(p, n, pts)


def test_int_deg_through_the_complement_edges():
    for p, n in ((2, 1), (2, 4), (3, 2), (3, 3), (5, 2), (7, 1)):
        s = (p - 1) * n
        assert int_deg(full_cube(p, n)) == s
        assert_linked(p, n, tuple(range(p**n)))
        for missing in (0, p**n - 1, p**n // 3):  # |Y| = 1
            pts = complement(p, n, (missing,))
            assert int_deg(PointSet(p, n, pts)) == s - 1 == naive_int_deg(pts, p, n)
            assert_linked(p, n, pts)
    # 2|X| == p**n stays on the direct path: every half of F_2^3
    for half in combinations(range(8), 4):
        assert int_deg(PointSet(2, 3, half)) == naive_int_deg(half, 2, 3)
        assert_linked(2, 3, half)


def test_int_deg_through_the_complement_builds_only_its_grades(monkeypatch):
    # F_3^6 minus three points: the complement is spanned at grade 1, while
    # the set itself would need grades up to its answer 11
    top = 2

    def bounded_grade(p, n, d):
        assert d <= top, f"grade {d} of F_{p}^{n} built"
        return _grade(p, n, d)

    monkeypatch.setattr(interpolation, "_grade", bounded_grade)
    interpolation._int_deg_points.cache_clear()
    assert int_deg(PointSet(3, 6, complement(3, 6, (0, 1, 5)))) == 11
    # F_3^3 minus five points on two axes: Y's grade 1 adds 2 < 3 to the rank,
    # so the answer 6 - 1 is read there and Y's grade 2 is never built
    top = 1
    points = complement(3, 3, (0, 1, 2, 3, 6))
    assert int_deg(PointSet(3, 3, points)) == naive_int_deg(points, 3, 3) == 5


# --- find_unshattered_witness --------------------------------------------------------


def test_witness_examples():
    fam = SetFamily.from_masks(2, [0, 1])
    assert find_unshattered_witness(fam, 0b10) == {2: 1}

    low = generate_family(4, FamilyKind.lowweight(2))
    assert find_unshattered_witness(low, 0b0111) == {1: 1, 2: 1, 3: 1}

    powerset = generate_family(2, FamilyKind.powerset())
    with pytest.raises(WitnessNotFoundError):
        find_unshattered_witness(powerset, 0b01)


def test_witness_is_absent_and_smallest():
    fam = SetFamily.from_masks(3, [0, 1, 2, 4, 6])
    mask = 0b011  # traces 0,1,2 occur; 3 is absent
    pattern = find_unshattered_witness(fam, mask)
    assert pattern == {1: 1, 2: 1}
    # no member realizes the pattern on the subset
    for member in fam.members:
        assert any((member >> (e - 1)) & 1 != bit for e, bit in pattern.items())
    with pytest.raises(ParameterError):
        find_unshattered_witness(fam, 0)


# --- represent_monomial --------------------------------------------------------------


def eval_poly_on_mask(poly, mask):
    digits = tuple((mask >> i) & 1 for i in range(poly.dimension))
    return poly.evaluate(digits)


def monomial_value(monomial_mask, member_mask):
    return 1 if member_mask & monomial_mask == monomial_mask else 0


def test_represent_monomial_examples():
    # {∅, {1}} has VC dimension 1, so the size-1 monomial x_2 is already at
    # the bound and comes back unchanged (and indeed equals x_2 on the family)
    fam = SetFamily.from_masks(2, [0, 1])
    poly = represent_monomial(fam, 0b10)
    assert poly.terms == {(0, 1): 1}
    for member in fam.members:
        assert eval_poly_on_mask(poly, member) == monomial_value(0b10, member)

    # above the bound the reduction kicks in: x_1 x_2 rewrites to x_2 here
    # (absent pattern (0,1) gives (x_1+1) x_2 == 0 on the family)
    poly = represent_monomial(fam, 0b11)
    assert poly.terms == {(0, 1): 1}
    for member in fam.members:
        assert eval_poly_on_mask(poly, member) == monomial_value(0b11, member)

    # at or below the VC dimension the monomial comes back unchanged
    powerset = generate_family(2, FamilyKind.powerset())
    poly = represent_monomial(powerset, 0b11)
    assert poly.terms == {(1, 1): 1}

    low = generate_family(3, FamilyKind.lowweight(1))
    poly = represent_monomial(low, 0b011)
    assert poly.degree() <= 1
    for member in low.members:
        assert eval_poly_on_mask(poly, member) == monomial_value(0b011, member)


def test_represent_monomial_exhaustive_small():
    for n in (1, 2):
        for fam in all_nonempty_families(n):
            bound = vc_dim(fam)
            for mono in range(1 << n):
                poly = represent_monomial(fam, mono)
                assert poly.degree() <= bound
                for member in fam.members:
                    assert eval_poly_on_mask(poly, member) == monomial_value(mono, member)


def test_represent_monomial_rejects_empty():
    with pytest.raises(EmptyFamilyError):
        represent_monomial(SetFamily(2, ()), 1)
