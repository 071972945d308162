import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetvc import (
    DimensionMismatchError,
    PartialFunction,
    PointSet,
    ReducedPolynomial,
    ResourceLimitError,
    SetFamily,
    clp_matrix,
    deg_on_set,
    diagonal_slice_rank_bounds,
    embed_01,
    indicator_of_zero,
    k_fold_sumset,
    monomial_basis,
    monomial_count,
    random_polynomial,
    rank,
    reconstruction_matches,
    slice_decompose,
    sum_tensor,
    verify_clp_bound,
)
from sumsetvc.cli import run as run_cli
from sumsetvc.clp import SliceTerm, _monomial_sum_table
from sumsetvc.families import decode_point
from sumsetvc.linalg import SpanTrackerModP
from sumsetvc.sampling import SplitMix64, sample_distinct


def all_nonempty_families(n):
    for char in range(1, 1 << (1 << n)):
        yield SetFamily(n, tuple(m for m in range(1 << n) if char >> m & 1))


# --- clp_matrix -----------------------------------------------------------------


def test_clp_matrix_examples():
    constant = ReducedPolynomial.constant(2, 2, 1)
    m = clp_matrix(constant)
    assert np.array_equal(m.array, np.ones((4, 4), dtype=np.int64))
    assert rank(m) == 1

    for n in (1, 2, 3):
        ind = indicator_of_zero(2, n)
        m = clp_matrix(ind)
        assert np.array_equal(m.array, np.eye(1 << n, dtype=np.int64))
        assert rank(m) == 1 << n

    x = ReducedPolynomial.monomial(2, 1, (1,))
    m = clp_matrix(x)
    assert m.array.tolist() == [[0, 1], [1, 0]]
    assert rank(m) == 2
    assert 2 * monomial_count(2, 1, 0) == 2  # the bound is tight here


def test_clp_matrix_entry_definition():
    gen = SplitMix64(12)
    poly = random_polynomial(3, 2, 3, gen)
    m = clp_matrix(poly)
    from sumsetvc.families import add_points

    for x in range(9):
        for y in range(9):
            assert m.array[x, y] == poly.evaluate_encoded(add_points(x, y, 3, 2))


def test_clp_matrix_size_guard():
    poly = ReducedPolynomial.constant(2, 13, 1)
    with pytest.raises(ResourceLimitError):
        clp_matrix(poly)  # 2^13 > default guard
    m = clp_matrix(poly, point_limit=1 << 13)
    assert m.rows == 1 << 13


def test_verify_clp_bound_small_corpora():
    gen = SplitMix64(77)
    for i in range(50):
        poly = random_polynomial(2, 6, i % 7, gen)
        report = verify_clp_bound(poly)
        assert report.ok, (poly, report)
        assert report.bound == 2 * monomial_count(2, 6, report.degree // 2)
    for i in range(30):
        poly = random_polynomial(3, 3, i % 7, gen)
        assert verify_clp_bound(poly).ok


def value_space_rank(poly):
    return SpanTrackerModP(poly.modulus).add(clp_matrix(poly).array)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 1)])
def test_verify_clp_bound_rank_equals_value_space_for_every_small_polynomial(p, n):
    monomials = monomial_basis(p, n, (p - 1) * n).monomials
    for coeffs in np.ndindex(*(p,) * len(monomials)):
        poly = ReducedPolynomial(p, n, {e: c for e, c in zip(monomials, coeffs) if c})
        assert verify_clp_bound(poly).rank == value_space_rank(poly), poly


@pytest.mark.parametrize(
    "p,n",
    [(2, n) for n in range(1, 11)] + [(3, n) for n in range(1, 6)] + [(5, 3), (7, 2), (11, 2)],
)
def test_verify_clp_bound_rank_equals_value_space_at_every_degree(p, n):
    gen = SplitMix64(909 + 31 * p + n)
    polys = [ReducedPolynomial.zero(p, n), indicator_of_zero(p, n)]
    polys += [random_polynomial(p, n, d, gen) for d in range((p - 1) * n + 1)]
    for poly in polys:
        assert verify_clp_bound(poly).rank == value_space_rank(poly), poly


@pytest.mark.parametrize("p,n", [(3, 3), (5, 2), (7, 1)])
def test_monomial_sum_table_is_the_reduced_digitwise_sum(p, n):
    order, table = _monomial_sum_table(p, n)
    size = p**n
    assert table.dtype == np.int32 and table.shape == (size, size)
    assert sorted(order.tolist()) == list(range(size))
    degrees = [sum(decode_point(int(a), p, n)) for a in order]
    assert all(a >= b for a, b in zip(degrees, degrees[1:]))
    for i, a in enumerate(order):
        for j, b in enumerate(order):
            digits = [x + y for x, y in zip(decode_point(int(a), p, n), decode_point(int(b), p, n))]
            want = size if max(digits) >= p else sum(x * p**k for k, x in enumerate(digits))
            assert table[i, j] == want


def test_monomial_sum_table_keeps_one_table():
    for p, n in ((3, 2), (5, 1)):
        verify_clp_bound(indicator_of_zero(p, n))
        assert _monomial_sum_table.cache_info().currsize == 1


def test_verify_clp_bound_gf2_rank_matches_generic_elimination():
    gen = SplitMix64(808)
    for d in range(9):
        poly = random_polynomial(2, 8, d, gen)
        assert verify_clp_bound(poly).rank == SpanTrackerModP(2).add(clp_matrix(poly).array)


def test_verify_clp_bound_gf2_keeps_the_matrix_side_guard(capsys):
    poly = random_polynomial(2, 13, 2, SplitMix64(13))
    with pytest.raises(ResourceLimitError, match="matrix side p\\*\\*n"):
        verify_clp_bound(poly)  # 2^13 > default guard
    report = verify_clp_bound(poly, point_limit=1 << 13)
    assert report.ok and report.bound == 2 * monomial_count(2, 13, 1)
    with pytest.raises(ResourceLimitError, match="cube points p\\*\\*n"):
        verify_clp_bound(ReducedPolynomial.zero(2, 27), point_limit=1 << 27)
    assert run_cli(["clp-rank", "--p", "2", "--n", "13", "--d", "2", "--seed", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_degree_zero_bound():
    report = verify_clp_bound(ReducedPolynomial.constant(5, 2, 3))
    assert report.rank <= 1 <= report.bound == 2
    assert report.ok


# --- slice_decompose -------------------------------------------------------------


def test_slice_constant_single_term():
    one = ReducedPolynomial.constant(3, 2, 1)
    dec = slice_decompose(one, 3)
    assert dec.term_count() == 1
    term = dec.terms[0]
    assert term.axis == 1
    assert term.axis_monomial == (0, 0)
    assert term.residual == ReducedPolynomial.constant(3, 4, 1)
    assert reconstruction_matches(dec, one)


def test_slice_linear_f2_example():
    x = ReducedPolynomial.monomial(2, 1, (1,))
    dec = slice_decompose(x, 2)
    # the monomial from each axis lands on the opposite (low-degree) axis with
    # a constant axis monomial; two terms, matching 2 * m_0(2, 1)
    assert dec.term_count() == 2 == 2 * monomial_count(2, 1, 0)
    assert {t.axis for t in dec.terms} == {1, 2}
    for term in dec.terms:
        assert term.axis_monomial == (0,)
        assert term.residual.terms == {(1,): 1}
    assert reconstruction_matches(dec, x)


def test_slice_square_f3_example():
    g = ReducedPolynomial.monomial(3, 1, (2,))
    dec = slice_decompose(g, 3)
    assert dec.term_count() <= 3 * monomial_count(3, 1, 0) == 3
    assert reconstruction_matches(dec, g)
    # hand expansion of (x+y+z)^2 grouped by first zero-degree axis
    by_axis = {t.axis: t for t in dec.terms}
    assert by_axis[1].residual.terms == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert by_axis[2].residual.terms == {(2, 0): 1, (1, 1): 2}
    assert by_axis[3].residual.terms == {(1, 1): 2}


def test_slice_axis_monomial_degree_bound_and_reconstruction_corpus():
    gen = SplitMix64(303)
    for p in (2, 3):
        for n in (1, 2):
            for k in (2, 3):
                for d in range((p - 1) * n + 1):
                    f = random_polynomial(p, n, d, gen)
                    dec = slice_decompose(f, k)
                    cap = f.degree() // k
                    assert all(sum(t.axis_monomial) <= cap for t in dec.terms)
                    assert dec.term_count() <= k * monomial_count(p, n, cap)
                    assert reconstruction_matches(dec, f)


@pytest.mark.parametrize("p", [2, 3, 5, 65537])
def test_slice_expansion_never_cancels(p):
    # every (term, split) pair survives as its own residual entry
    gen = SplitMix64(p)
    for n in (1, 2):
        for k in (2, 3, 4):
            for d in range(min((p - 1) * n, 8) + 1):
                f = random_polynomial(p, n, d, gen)
                dec = slice_decompose(f, k, grid_limit=p ** (k * n))
                splits = sum(
                    math.prod(math.comb(e + k - 1, k - 1) for e in expvec) for expvec in f.terms
                )
                assert sum(len(t.residual.terms) for t in dec.terms) == splits
                assert not any(t.residual.is_zero() for t in dec.terms)
                keys = [(t.axis, t.axis_monomial) for t in dec.terms]
                assert len(set(keys)) == len(keys)


@pytest.mark.parametrize(
    "argv, digest",
    [
        ("--p 3 --n 2 --k 3 --d 2 --seed 5",
         "8b8454692982deaf87c48a7764d419923d051e78bffc09bd01b0ffa91b8a5c84"),
        ("--p 2 --n 4 --k 2 --d 4 --seed 1",
         "2d1f9a95bad9bd8fd9d787a8351f635898b1501953ff50589b77f03eba7cf173"),
        ("--p 5 --n 2 --k 2 --d 8 --seed 3",
         "f9c007522dd652b8b4745d9cb22780e5e1ec78ed2c159ba1b001f5515f5f4f83"),
        ("--p 7 --n 1 --k 4 --d 6 --seed 2",
         "b5a5a1022f7460f3041f5e9a1ad74c23e2e24e6886da4aaaf1664fad4919645c"),
        ("--p 3 --n 5 --k 3 --d 4 --seed 1",  # 3**15 of the grid guard's 2**24
         "7cd96bfdaae8a42a7a165737aaa0188f67c46f50232a8ec0ddb22d2f3c9304cc"),
    ],
)
def test_slice_decompose_cli_bytes_are_pinned(capsys, argv, digest):
    assert run_cli(["slice-decompose", *argv.split()]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_reconstruction_rejects_a_changed_decomposition_or_polynomial():
    f = random_polynomial(3, 2, 3, SplitMix64(2))
    dec = slice_decompose(f, 3)
    first, *rest = dec.terms
    last = dec.terms[-1]
    (e, c), *_ = first.residual.terms.items()
    bumped = replace(first, residual=ReducedPolynomial(3, 4, {**first.residual.terms, e: c + 1}))
    moved = replace(last, axis=last.axis % 3 + 1)
    for terms in ([bumped, *rest], rest, [*dec.terms[:-1], moved]):
        assert reconstruction_matches(replace(dec, terms=tuple(terms)), f) is False
    assert reconstruction_matches(dec, f.add(ReducedPolynomial.constant(3, 2, 1))) is False
    assert reconstruction_matches(dec, random_polynomial(5, 2, 3, SplitMix64(2))) is False
    # the check is exact: entries that cancel each other still match
    extra = ReducedPolynomial.monomial(3, 4, (2, 1, 0, 1))
    cancelling = (SliceTerm(2, (1, 1), extra), SliceTerm(2, (1, 1), extra.scale(-1)))
    assert reconstruction_matches(replace(dec, terms=dec.terms + cancelling), f) is True


def test_reconstruction_shares_a_power_across_terms_and_coordinates():
    # (y_1 + ... + y_k)^3 serves three terms, on both coordinates, and the
    # terms are not listed in the ascending order the powers are built in
    f = ReducedPolynomial(5, 2, {(3, 3): 1, (3, 0): 2, (0, 1): 4, (1, 3): 3, (4, 0): 1})
    for k in (2, 3):
        dec = slice_decompose(f, k)
        assert reconstruction_matches(dec, f) is True
        for changed in ((3, 3), (0, 1), (4, 0)):
            g = f.add(ReducedPolynomial.monomial(5, 2, changed))
            assert reconstruction_matches(dec, g) is False


def test_slice_matrix_specialization_certifies_rank():
    gen = SplitMix64(404)
    for _ in range(25):
        f = random_polynomial(2, 3, gen.below(4), gen)
        dec = slice_decompose(f, 2)
        assert rank(clp_matrix(f)) <= max(dec.term_count(), 0) or f.is_zero()
        if not f.is_zero():
            assert rank(clp_matrix(f)) <= dec.term_count()


def test_slice_decompose_guards():
    f = ReducedPolynomial.constant(2, 2, 1)
    with pytest.raises(ResourceLimitError):
        slice_decompose(f, 2, grid_limit=3)
    from sumsetvc import ParameterError

    with pytest.raises(ParameterError):
        slice_decompose(f, 1)


# --- sum_tensor --------------------------------------------------------------------


def test_sum_tensor_all_ones():
    pts = PointSet.from_points(3, 2, [0, 4, 8])
    t = sum_tensor(ReducedPolynomial.constant(3, 2, 1), pts, 2)
    assert np.array_equal(t.values, np.ones((3, 3), dtype=np.int64))


def test_sum_tensor_identity_case_p2():
    fam = SetFamily.from_masks(3, [0, 3, 5, 6])
    t = sum_tensor(indicator_of_zero(2, 3), embed_01(fam, 2), 2)
    assert np.array_equal(t.values, np.eye(4, dtype=np.int64))


def test_sum_tensor_diagonal_3fold_p3():
    fam = SetFamily.from_masks(3, [1, 2, 4, 7])
    t = sum_tensor(indicator_of_zero(3, 3), embed_01(fam, 3), 3)
    rep = diagonal_slice_rank_bounds(t)
    assert rep.is_diagonal
    assert rep.lower_bound == rep.nonzero_diagonal_count == 4


def test_sum_tensor_entries_match_pointwise_evaluation():
    from sumsetvc.families import add_points

    gen = SplitMix64(178)
    poly = random_polynomial(5, 2, 4, gen)
    pts = PointSet.from_points(5, 2, sample_distinct(25, 6, gen))
    t = sum_tensor(poly, pts, 3)
    for i, a in enumerate(pts.points):
        for j, b in enumerate(pts.points):
            for k, c in enumerate(pts.points):
                total = add_points(add_points(a, b, 5, 2), c, 5, 2)
                assert t.values[i, j, k] == poly.evaluate_encoded(total)


def test_sum_tensor_guards_and_mismatch():
    pts = PointSet.from_points(2, 2, [0, 1])
    with pytest.raises(ResourceLimitError):
        sum_tensor(indicator_of_zero(2, 2), pts, 30)
    with pytest.raises(DimensionMismatchError):
        sum_tensor(indicator_of_zero(3, 2), pts, 2)


def test_diagonal_report_examples():
    pts = PointSet.from_points(2, 2, [0, 1, 2])
    ident = sum_tensor(indicator_of_zero(2, 2), pts, 2)
    rep = diagonal_slice_rank_bounds(ident)
    assert rep.is_diagonal and rep.lower_bound == 3

    allones = sum_tensor(ReducedPolynomial.constant(2, 2, 1), PointSet.from_points(2, 2, [0, 1]), 2)
    rep = diagonal_slice_rank_bounds(allones)
    assert not rep.is_diagonal
    assert rep.lower_bound == 0
    assert rep.nonzero_diagonal_count == 2


def test_diagonality_of_01_sum_tensors_seeded():
    gen = SplitMix64(505)
    for p in (2, 3, 5):
        for n in (2, 3, 4):
            for _ in range(5):
                size = 1 + gen.below(1 << n)
                fam = SetFamily(n, tuple(sample_distinct(1 << n, size, gen)))
                t = sum_tensor(indicator_of_zero(p, n), embed_01(fam, p), p)
                rep = diagonal_slice_rank_bounds(t)
                assert rep.is_diagonal
                assert rep.lower_bound == len(fam)


def test_consistency_squeeze():
    # diagonal lower bound |A| combined with the decomposition upper bound:
    # |A| <= p * #monomials(degree <= floor(d/p)) where d is the degree of the
    # zero-indicator on the p-fold sumset
    gen = SplitMix64(606)
    for p in (2, 3):
        for n in (2, 3):
            for _ in range(8):
                size = 1 + gen.below(1 << n)
                fam = SetFamily(n, tuple(sample_distinct(1 << n, size, gen)))
                pts = embed_01(fam, p)
                tensor = sum_tensor(indicator_of_zero(p, n), pts, p)
                rep = diagonal_slice_rank_bounds(tensor)
                assert rep.is_diagonal and rep.lower_bound == len(fam)
                sumset = k_fold_sumset(pts, p)
                values = tuple(1 if s == 0 else 0 for s in sumset.points)
                d = deg_on_set(PartialFunction(sumset, values))
                assert len(fam) <= p * monomial_count(p, n, d // p)


def test_tensor_digest_deterministic():
    fam = SetFamily.from_masks(2, [0, 1, 3])
    t1 = sum_tensor(indicator_of_zero(2, 2), embed_01(fam, 2), 2)
    t2 = sum_tensor(indicator_of_zero(2, 2), embed_01(fam, 2), 2)
    assert t1.content_digest() == t2.content_digest()
    other = sum_tensor(ReducedPolynomial.constant(2, 2, 1), embed_01(fam, 2), 2)
    assert other.content_digest() != t1.content_digest()


@pytest.mark.parametrize("k,n,primes", [
    (2, 1, [3, 5, 7, 251, 4093]),  # the primes up to the top one the grid guard admits
    (3, 1, [2, 3, 5, 13, 251]),
    (2, 2, [2, 3, 5, 7, 61]),
])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_decomposition_values_is_the_pointwise_sum_of_its_terms(k, n, primes, data):
    p = data.draw(st.sampled_from(primes))
    terms = data.draw(st.dictionaries(
        st.tuples(*(st.integers(0, min(p - 1, 6)) for _ in range(n))), st.integers(1, p - 1),
        max_size=4,
    ))
    f = ReducedPolynomial(p, n, terms)
    dec = slice_decompose(f, k)
    assert reconstruction_matches(dec, f)
    size = p**n
    if size**k <= 1000:
        indices = list(np.ndindex(*(size,) * k))
    else:
        indices = data.draw(st.lists(st.tuples(*(st.integers(0, size - 1) for _ in range(k))), max_size=30))
        indices.append((size - 1,) * k)
    for index in indices:
        points = [decode_point(i, p, n) for i in index]
        total = 0
        for term in dec.terms:
            axis_point = points[term.axis - 1]
            rest = tuple(x for a, point in enumerate(points) if a != term.axis - 1 for x in point)
            axis_value = math.prod(pow(x, e, p) for x, e in zip(axis_point, term.axis_monomial))
            total += axis_value * term.residual.evaluate(rest)
        assert total % p == f.evaluate(tuple(sum(xs) % p for xs in zip(*points))), index
