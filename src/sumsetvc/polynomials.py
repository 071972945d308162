"""p-reduced polynomials over F_p and bounded-degree monomial bases.

A p-reduced polynomial keeps every individual exponent below p; the space
of such polynomials in n variables has dimension p^n and represents each
function F_p^n -> F_p exactly once. Multiplication reduces exponents via
x^p = x, so products agree with the underlying functions.

Monomial bases are ordered by total degree, then within a grade by
descending lexicographic exponent tuple (so x1 precedes x2). Polynomials
serialize as a list of "coefficient:e1,...,en" terms in that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ParameterError, ResourceLimitError
from .families import (
    CUBE_MATERIALIZE_LIMIT,
    ENCODING_LIMIT,
    check_modulus,
    check_power,
    decode_point,
    parse_natural,
)


def _validate_field(p: int, n: int) -> None:
    check_modulus(p)
    if n < 1:
        raise ParameterError(f"dimension must be >= 1, got {n}")


def monomial_count(p: int, n: int, d: int) -> int:
    """Number of monomials in n variables, exponents < p, total degree <= d.

    Dynamic programming over variables and residual degree; d above (p-1)*n
    clamps to the full count p^n.
    """
    _validate_field(p, n)
    if d < 0:
        raise ParameterError(f"d must be nonnegative, got {d}")
    d = min(d, (p - 1) * n)
    counts = [1]
    for _ in range(n):
        new = [0] * (min(len(counts) - 1 + (p - 1), d) + 1)
        for total, ways in enumerate(counts):
            for e in range(min(p, d - total + 1)):
                new[total + e] += ways
        counts = new
    return sum(counts)


def _basis_key(expvec: tuple[int, ...]) -> tuple:
    return (sum(expvec), tuple(-e for e in expvec))


def monomials_of_degree(p: int, n: int, d: int):
    """Reduced exponent vectors of total degree d, in canonical basis order.

    Descending lexicographic: the first exponent runs from its largest
    feasible value down and the rest recurse, so no vector outside the grade
    is ever built.
    """
    if n == 1:
        if 0 <= d < p:
            yield (d,)
        return
    # the lower bound leaves the rest able to reach d, so no branch is empty
    for e in range(min(p - 1, d), max(0, d - (p - 1) * (n - 1)) - 1, -1):
        for rest in monomials_of_degree(p, n - 1, d - e):
            yield (e,) + rest


@lru_cache(maxsize=256)
def _grade(p: int, n: int, d: int) -> tuple[tuple[int, ...], ...]:
    """The reduced monomials of total degree d, in canonical basis order.

    The one memo of grades: bases chain them and graded spans absorb them.
    """
    return tuple(monomials_of_degree(p, n, d))


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered monomial basis for total degree <= max_degree."""

    modulus: int
    dimension: int
    max_degree: int
    monomials: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.monomials)


def monomial_basis(p: int, n: int, d: int) -> MonomialBasis:
    """Materialize the canonical bounded-degree basis."""
    _validate_field(p, n)
    if d < 0:
        raise ParameterError(f"d must be nonnegative, got {d}")
    check_power(p, n, ENCODING_LIMIT, "exact-encoding size p**n", ParameterError)
    d = min(d, (p - 1) * n)
    vectors = chain.from_iterable(_grade(p, n, k) for k in range(d + 1))
    return MonomialBasis(p, n, d, tuple(vectors))


def _reduce_exponent(e: int, p: int) -> int:
    # x^p = x as functions on F_p, so exponents >= p fold back into [1, p-1]
    if e < p:
        return e
    return (e - 1) % (p - 1) + 1


class ReducedPolynomial:
    """Polynomial over F_p with every individual exponent below p.

    terms maps exponent tuples to nonzero coefficients in [1, p). The zero
    polynomial has no terms and degree 0 by convention.
    """

    __slots__ = ("modulus", "dimension", "terms")

    def __init__(self, modulus: int, dimension: int, terms: Mapping[tuple[int, ...], int]):
        _validate_field(modulus, dimension)
        clean: dict[tuple[int, ...], int] = {}
        for expvec, coeff in terms.items():
            expvec = tuple(expvec)
            if len(expvec) != dimension:
                raise ParameterError(
                    f"exponent vector {expvec} has length {len(expvec)}, expected {dimension}"
                )
            if min(expvec) < 0 or max(expvec) >= modulus:
                raise ParameterError(f"exponent vector {expvec} is not {modulus}-reduced")
            c = coeff % modulus
            if c:
                clean[expvec] = c
        self.modulus = modulus
        self.dimension = dimension
        self.terms = clean

    # --- constructors -------------------------------------------------

    @classmethod
    def zero(cls, p: int, n: int) -> "ReducedPolynomial":
        return cls(p, n, {})

    @classmethod
    def constant(cls, p: int, n: int, c: int) -> "ReducedPolynomial":
        return cls(p, n, {(0,) * n: c})

    @classmethod
    def monomial(cls, p: int, n: int, expvec: Sequence[int], coeff: int = 1) -> "ReducedPolynomial":
        return cls(p, n, {tuple(expvec): coeff})

    # --- queries --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        return sorted(self.terms.items(), key=lambda kv: _basis_key(kv[0]))

    def evaluate(self, digits: Sequence[int]) -> int:
        if len(digits) != self.dimension:
            raise ParameterError(f"expected {self.dimension} coordinates, got {len(digits)}")
        p = self.modulus
        total = 0
        for expvec, coeff in self.terms.items():
            term = coeff
            for x, e in zip(digits, expvec):
                if e:
                    term = term * pow(x % p, e, p) % p
                    if term == 0:
                        break
            total += term
        return total % p

    def evaluate_encoded(self, point: int) -> int:
        return self.evaluate(decode_point(point, self.modulus, self.dimension))

    # --- arithmetic (function semantics) --------------------------------

    def add(self, other: "ReducedPolynomial") -> "ReducedPolynomial":
        self._check_compatible(other)
        merged = dict(self.terms)
        for expvec, coeff in other.terms.items():
            merged[expvec] = merged.get(expvec, 0) + coeff
        return ReducedPolynomial(self.modulus, self.dimension, merged)

    def scale(self, c: int) -> "ReducedPolynomial":
        return ReducedPolynomial(
            self.modulus,
            self.dimension,
            {e: coeff * c for e, coeff in self.terms.items()},
        )

    def multiply(self, other: "ReducedPolynomial") -> "ReducedPolynomial":
        self._check_compatible(other)
        p = self.modulus
        out: dict[tuple[int, ...], int] = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                expvec = tuple(_reduce_exponent(a + b, p) for a, b in zip(ea, eb))
                out[expvec] = out.get(expvec, 0) + ca * cb
        return ReducedPolynomial(p, self.dimension, out)

    def _check_compatible(self, other: "ReducedPolynomial") -> None:
        if self.modulus != other.modulus or self.dimension != other.dimension:
            raise ParameterError("polynomials live over different rings")

    # --- serialization ---------------------------------------------------

    def to_term_list(self) -> list[str]:
        return [
            f"{coeff}:{','.join(str(e) for e in expvec)}"
            for expvec, coeff in self.sorted_terms()
        ]

    @classmethod
    def from_term_list(cls, p: int, n: int, items: Iterable[str]) -> "ReducedPolynomial":
        terms: dict[tuple[int, ...], int] = {}
        for item in items:
            try:
                coeff_text, exp_text = item.split(":")
                sign = -1 if coeff_text.startswith("-") else 1  # negative coefficients reduce mod p
                coeff = sign * parse_natural(coeff_text.removeprefix("-"))
                expvec = tuple(parse_natural(e) for e in exp_text.split(","))
            except ValueError:
                raise ParameterError(f"malformed polynomial term {item!r}") from None
            terms[expvec] = terms.get(expvec, 0) + coeff
        return cls(p, n, terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReducedPolynomial):
            return NotImplemented
        return (
            self.modulus == other.modulus
            and self.dimension == other.dimension
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.modulus, self.dimension, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return f"ReducedPolynomial(F{self.modulus}, n={self.dimension}, 0)"
        body = " + ".join(
            f"{c}*x^{list(e)}" for e, c in self.sorted_terms()
        )
        return f"ReducedPolynomial(F{self.modulus}, n={self.dimension}, {body})"


def indicator_of_zero(p: int, n: int) -> ReducedPolynomial:
    """The reduced polynomial of the indicator of the zero vector.

    Product over coordinates of (1 - x_j^(p-1)); degree (p-1)*n, value 1 at
    the origin and 0 elsewhere.
    """
    _validate_field(p, n)
    poly = ReducedPolynomial.constant(p, n, 1)
    for j in range(n):
        expvec = tuple(p - 1 if i == j else 0 for i in range(n))
        factor = ReducedPolynomial(p, n, {(0,) * n: 1, expvec: p - 1})
        poly = poly.multiply(factor)
    return poly


def random_polynomial(p: int, n: int, d: int, gen) -> ReducedPolynomial:
    """Uniform coefficients over the degree-<=d basis from a SplitMix64 stream,
    drawn in basis order in one batch."""
    basis = monomial_basis(p, n, d)
    coeffs = gen.below_many(p, len(basis)).tolist()
    return ReducedPolynomial(p, n, {e: c for e, c in zip(basis.monomials, coeffs) if c})


def point_digits(points, p: int, n: int) -> tuple[np.ndarray, ...]:
    """Base-p digit columns of encoded points: column j holds coordinate j+1."""
    values = np.asarray(points, dtype=np.int64)
    return tuple(values // p**j % p for j in range(n))


@lru_cache(maxsize=32)
def _cube_digits(p: int, n: int) -> tuple[np.ndarray, ...]:
    columns = point_digits(np.arange(p**n, dtype=np.int64), p, n)
    for column in columns:
        column.setflags(write=False)
    return columns


def monomial_values(
    digits: Sequence[np.ndarray], expvec: Sequence[int], p: int, coeff: int = 1
) -> np.ndarray:
    """coeff * x^expvec mod p at every point of the digit columns (0^0 = 1).

    Each power comes from square-and-multiply on its digit column, so every
    product is of two residues (below p**2). It evaluates a polynomial's
    terms one at a time; graded spans and evaluation matrices read whole
    blocks of monomials from a power table in sumsetvc.interpolation instead.
    """
    out = coeff % p
    for e, base in zip(expvec, digits):
        while e:
            if e & 1:
                out = out * base % p
            e >>= 1
            if e:
                base = base * base % p
    if not isinstance(out, np.ndarray):
        return np.full(len(digits[0]), out, dtype=np.int64)
    return out


def values_at(poly: ReducedPolynomial, digits: Sequence[np.ndarray]) -> np.ndarray:
    """Evaluate at every point of the digit columns (see point_digits)."""
    p = poly.modulus
    out = np.zeros(len(digits[0]), dtype=np.int64)
    for expvec, coeff in poly.terms.items():
        out += monomial_values(digits, expvec, p, coeff)
    return out % p


def values_on_cube(poly: ReducedPolynomial) -> np.ndarray:
    """Evaluate at every point of F_p^n, indexed by encoded point value."""
    p, n = poly.modulus, poly.dimension
    check_power(p, n, CUBE_MATERIALIZE_LIMIT, "cube points p**n", ResourceLimitError)
    return values_at(poly, _cube_digits(p, n))
