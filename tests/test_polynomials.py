from itertools import product

import numpy as np
import pytest

from sumsetvc import (
    ParameterError,
    ReducedPolynomial,
    binom_sum,
    indicator_of_zero,
    monomial_basis,
    monomial_count,
    random_polynomial,
)
from sumsetvc.polynomials import monomials_of_degree, values_on_cube
from sumsetvc.sampling import SplitMix64


def test_monomial_count_examples():
    assert monomial_count(2, 4, 2) == 11
    assert monomial_count(3, 2, 2) == 6
    for p, n in ((2, 3), (3, 2), (5, 4)):
        assert monomial_count(p, n, 0) == 1


def test_monomial_count_clamps_to_full_space():
    assert monomial_count(2, 3, 99) == 8
    assert monomial_count(3, 2, 99) == 9


def test_monomial_count_matches_binom_sum_for_p2():
    for n in range(1, 17):
        for k in range(n + 1):
            assert monomial_count(2, n, k) == binom_sum(n, k)


def test_monomial_count_matches_enumeration():
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            for d in range((p - 1) * n + 1):
                assert monomial_count(p, n, d) == len(monomial_basis(p, n, d))


def test_monomial_count_at_large_primes_and_against_brute_force():
    # the exponent loop is bounded by d, not p: these return at once
    assert monomial_count(2147483647, 1, 2) == 3
    assert monomial_count(3037000493, 3, 5) == 56
    for p in (2, 3, 5, 7, 11):
        for n in range(1, 5):
            degrees = [sum(e) for e in product(range(p), repeat=n)]
            for d in range((p - 1) * n + 2):
                assert monomial_count(p, n, d) == sum(t <= d for t in degrees)


def test_monomial_count_rejects_composite():
    with pytest.raises(ParameterError):
        monomial_count(4, 2, 1)


def test_monomial_basis_examples():
    assert monomial_basis(2, 2, 1).monomials == ((0, 0), (1, 0), (0, 1))
    assert len(monomial_basis(2, 3, 3)) == 8
    assert monomial_basis(3, 1, 2).monomials == ((0,), (1,), (2,))


def test_monomial_basis_graded_then_lex():
    basis = monomial_basis(3, 2, 2).monomials
    assert basis == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))
    # every reduced exponent vector, sorted by degree, then descending lexicographic
    for p, n in ((2, 1), (2, 5), (3, 3), (5, 2), (7, 2), (11, 1)):
        every = sorted(product(range(p), repeat=n), key=lambda e: (sum(e), [-x for x in e]))
        for d in range((p - 1) * n + 1):
            assert monomial_basis(p, n, d).monomials == tuple(e for e in every if sum(e) <= d)
        for d in (-1, (p - 1) * n + 1):
            assert list(monomials_of_degree(p, n, d)) == []


def test_polynomial_construction_and_degree():
    zero = ReducedPolynomial.zero(3, 2)
    assert zero.is_zero() and zero.degree() == 0
    poly = ReducedPolynomial(3, 2, {(1, 2): 5, (0, 0): 3})
    assert poly.degree() == 3
    assert poly.terms[(1, 2)] == 2  # coefficients reduce mod p
    # zero coefficients drop out
    assert ReducedPolynomial(3, 2, {(1, 0): 3}).is_zero()
    with pytest.raises(ParameterError):
        ReducedPolynomial(3, 2, {(3, 0): 1})
    with pytest.raises(ParameterError):
        ReducedPolynomial(3, 2, {(1,): 1})


def test_multiplication_reduces_exponents_functionally():
    x = ReducedPolynomial.monomial(3, 1, (1,))
    xx = ReducedPolynomial.monomial(3, 1, (2,))
    cube = x.multiply(xx)  # x^3 == x as a function on F_3
    assert cube == x
    for v in range(3):
        assert cube.evaluate((v,)) == pow(v, 3, 3)


def test_arithmetic_matches_pointwise_semantics():
    gen = SplitMix64(5)
    for p, n in ((2, 3), (3, 2)):
        a = random_polynomial(p, n, (p - 1) * n, gen)
        b = random_polynomial(p, n, (p - 1) * n, gen)
        sum_vals = (values_on_cube(a) + values_on_cube(b)) % p
        prod_vals = values_on_cube(a) * values_on_cube(b) % p
        assert np.array_equal(values_on_cube(a.add(b)), sum_vals)
        assert np.array_equal(values_on_cube(a.multiply(b)), prod_vals)
        assert np.array_equal(values_on_cube(a.scale(p - 1)), (p - 1) * values_on_cube(a) % p)


def test_evaluate_matches_cube_vector():
    gen = SplitMix64(11)
    poly = random_polynomial(3, 2, 4, gen)
    cube = values_on_cube(poly)
    for pt in range(9):
        assert poly.evaluate_encoded(pt) == cube[pt]


def test_indicator_of_zero():
    for p, n in ((2, 2), (3, 2), (5, 1)):
        ind = indicator_of_zero(p, n)
        assert ind.degree() == (p - 1) * n
        cube = values_on_cube(ind)
        assert cube[0] == 1
        assert not cube[1:].any()


def test_serialization_round_trip():
    poly = ReducedPolynomial(3, 2, {(1, 2): 2, (0, 0): 1, (2, 0): 1})
    items = poly.to_term_list()
    assert items == ["1:0,0", "1:2,0", "2:1,2"]  # graded order, then lex
    assert ReducedPolynomial.from_term_list(3, 2, items) == poly
    with pytest.raises(ParameterError):
        ReducedPolynomial.from_term_list(3, 2, ["oops"])
    # ASCII digits only, and one leading '-' on a coefficient, which reduces mod p
    assert ReducedPolynomial.from_term_list(3, 2, ["-1:0,0"]) == ReducedPolynomial(3, 2, {(0, 0): 2})
    for item in ("1_0:1,0", " +2:0,1", "+2:0,1", "--1:0,0", "1:+1,0", "1:1_0,0", "\u0663:0,0"):
        with pytest.raises(ParameterError, match="malformed polynomial term"):
            ReducedPolynomial.from_term_list(3, 2, [item])


def test_random_polynomial_is_seed_deterministic():
    a = random_polynomial(3, 3, 4, SplitMix64(21))
    b = random_polynomial(3, 3, 4, SplitMix64(21))
    c = random_polynomial(3, 3, 4, SplitMix64(22))
    assert a == b
    assert a != c
    assert a.degree() <= 4


def test_values_on_cube_at_a_large_prime():
    # exponents up to p - 1 at p = 65537: square-and-multiply, no p-by-p table
    p = 65537
    poly = ReducedPolynomial(p, 1, {(0,): 5, (1,): 7, (2,): p - 1, (12345,): 3, (p - 1,): 11})
    cube = values_on_cube(poly)
    assert cube.shape == (p,)
    for x in range(0, p, 31):
        assert cube[x] == poly.evaluate((x,))
    assert cube[p - 1] == poly.evaluate((p - 1,))
