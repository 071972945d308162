"""Sum matrices and tensors of a polynomial, and their slice-rank bounds.

`polynomial_method_bound` is the one bound here: k * m(floor(d/k)), where m
counts the monomials of degree at most floor(d/k). At k = 2 it bounds the rank
of M[x, y] = P(x + y) over F_p^n for P of degree d: expanding P at a coordinate
sum splits each monomial so that one side has low degree. The k-fold analogue
writes f(X^1 + ... + X^k) as a sum of terms, each multiplicative in the lowest
axis whose variable group got low degree; `SliceDecomposition.bound` is the
bound at k = arity, and `sumsetvc.verify` reads it at k = p for p-fold sumsets.
Nothing cancels in that expansion: every exponent of a reduced term is
below p, so each multinomial coefficient is a unit mod p, and distinct
splits of distinct terms give distinct monomials. The decomposition is
therefore read off term by term, with no merge pass.

Over F_2 the rank is taken without a dense matrix: row x of M, read as an
integer with bit y = M[x, y], is P's value integer translated by x in the
bit space of `sumsetvc.chars`. The rows are bit for bit the packed rows of
clp_matrix, so the packed GF(2) rank kernel returns the same rank.

The other direction is the diagonal lower bound: a k-fold tensor that
vanishes off the equal-index diagonal has slice rank equal to its number
of nonzero diagonal entries. That fact is used as a stated oracle; no
general slice-rank computation is attempted here.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, product

import numpy as np

from .chars import _images, _subset_sums
from .errors import DimensionMismatchError, ParameterError, ResourceLimitError
from .families import PointSet, add_points, check_power, encode_point
from .linalg import FieldMatrix, rank, rank_gf2_packed
from .polynomials import (
    CUBE_MATERIALIZE_LIMIT,
    ReducedPolynomial,
    _basis_key,
    _cube_digits,
    monomial_count,
    monomial_values,
    point_digits,
    values_at,
    values_on_cube,
)

DEFAULT_POINT_LIMIT = 4096
DEFAULT_GRID_LIMIT = 1 << 24
DEFAULT_ENTRY_LIMIT = 1 << 24


@dataclass(frozen=True)
class CLPBoundReport:
    degree: int
    rank: int
    bound: int
    ok: bool


@dataclass(frozen=True)
class SliceTerm:
    axis: int
    axis_monomial: tuple[int, ...]
    residual: ReducedPolynomial


@dataclass(frozen=True)
class SliceDecomposition:
    modulus: int
    dimension: int
    arity: int
    degree: int  # of the decomposed polynomial; each axis takes degree // arity at most
    terms: tuple[SliceTerm, ...]

    @property
    def bound(self) -> int:
        return polynomial_method_bound(self.modulus, self.dimension, self.degree, self.arity)

    def term_count(self) -> int:
        return len(self.terms)


@dataclass(frozen=True, eq=False)
class SumTensor:
    modulus: int
    arity: int
    axis_points: PointSet
    values: np.ndarray
    generator: ReducedPolynomial

    def content_digest(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.modulus}:{self.arity}:{self.values.shape}:".encode())
        h.update(np.ascontiguousarray(self.values, dtype="<i8").tobytes())
        return h.hexdigest()


@dataclass(frozen=True)
class DiagonalReport:
    is_diagonal: bool
    lower_bound: int
    nonzero_diagonal_count: int


@lru_cache(maxsize=1)
def _pairwise_sum_index(p: int, n: int) -> np.ndarray:
    """size x size table of encoded coordinatewise sums, size = p**n; one is
    cached, as a scan or CLI call uses one (p, n) and a table can take 128 MiB."""
    idx = np.arange(p**n, dtype=np.int64)
    table = add_points(idx[:, None], idx[None, :], p, n)
    table.setflags(write=False)
    return table


def clp_matrix(poly: ReducedPolynomial, *, point_limit: int = DEFAULT_POINT_LIMIT) -> FieldMatrix:
    """The p^n x p^n matrix M[x, y] = P(x + y), rows/columns in encoded point order."""
    p, n = poly.modulus, poly.dimension
    check_power(p, n, point_limit, "matrix side p**n", ResourceLimitError)
    vals = values_on_cube(poly)
    return FieldMatrix(p, vals[_pairwise_sum_index(p, n)])


def _gf2_sum_rows(poly: ReducedPolynomial, *, point_limit: int = DEFAULT_POINT_LIMIT) -> list[int]:
    """Rows of M[x, y] = P(x + y) over F_2 as integers, bit y of row x = M[x, y].

    Equal to pack_gf2_rows(clp_matrix(poly)), under the same guards: bit S
    is set for each term x^S of P, the subset sums make bit y equal P(y),
    and row x is that integer translated by x.
    """
    n = poly.dimension
    check_power(2, n, point_limit, "matrix side p**n", ResourceLimitError)
    check_power(2, n, CUBE_MATERIALIZE_LIMIT, "cube points p**n", ResourceLimitError)
    coeffs = sum(1 << encode_point(expvec, 2) for expvec in poly.terms)
    values = np.array([_subset_sums(coeffs, n)], dtype=object)
    return _images(values, n, "sym_diff")[:, 0].tolist()


def polynomial_method_bound(p: int, n: int, d: int, k: int) -> int:
    """k * #monomials of degree <= d // k: CLP rank (k = 2), slice terms, p-fold sumsets (k = p)."""
    return k * monomial_count(p, n, d // k)


def verify_clp_bound(
    poly: ReducedPolynomial, *, point_limit: int = DEFAULT_POINT_LIMIT
) -> CLPBoundReport:
    """Check rank(M) <= 2 * #monomials(degree <= floor(deg P / 2)).

    Over F_2 the rank is taken of the bit-space rows, otherwise of clp_matrix.
    """
    if poly.modulus == 2:
        r = rank_gf2_packed(_gf2_sum_rows(poly, point_limit=point_limit))
    else:
        r = rank(clp_matrix(poly, point_limit=point_limit))
    d = poly.degree()
    bound = polynomial_method_bound(poly.modulus, poly.dimension, d, 2)
    return CLPBoundReport(degree=d, rank=r, bound=bound, ok=r <= bound)


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def slice_decompose(
    f: ReducedPolynomial, k: int, *, grid_limit: int = DEFAULT_GRID_LIMIT
) -> SliceDecomposition:
    """Explicit slice decomposition of the k-axis tensor f(X^1 + ... + X^k).

    Substituting each variable x_j by the sum of its k axis copies expands
    each term multinomially: one expanded monomial per split of every
    exponent e_j into k parts, with coefficient coeff * prod_j e_j!/prod(parts!).
    Each piece keeps exponents below p, so no re-reduction is needed, and
    the expansion is direct because nothing cancels: e_j < p makes every
    multinomial a unit mod p, and the parts of a split sum back to the term,
    so distinct (term, split) pairs give distinct expanded monomials. Each
    one goes to the lowest-index axis whose variable group has degree at
    most floor(deg f / k); those sharing (axis, axis monomial) form one
    residual polynomial.
    """
    if k < 2:
        raise ParameterError(f"arity must be >= 2, got {k}")
    p, n = f.modulus, f.dimension
    check_power(p, k * n, grid_limit, "sum grid points p**(k*n)", ResourceLimitError)
    cap = f.degree() // k
    # e! mod p for every exponent e that occurs: e < p, so each is a unit
    top_exp = min(f.degree(), p - 1)
    fact = list(accumulate(range(1, top_exp + 1), lambda a, b: a * b % p, initial=1))
    inv_fact = [pow(x, -1, p) for x in fact]
    buckets: dict[tuple[int, tuple[int, ...]], dict[tuple[int, ...], int]] = {}
    for expvec, coeff in f.terms.items():
        top = coeff * math.prod(fact[e] for e in expvec)
        for splits in product(*(_compositions(e, k) for e in expvec)):
            groups = list(zip(*splits))  # groups[axis][j]: exponent of x_j on that axis
            axis = next(i for i, g in enumerate(groups) if sum(g) <= cap)
            c = top * math.prod(inv_fact[a] for split in splits for a in split) % p
            residual_exp = tuple(chain.from_iterable(groups[:axis] + groups[axis + 1 :]))
            buckets.setdefault((axis + 1, groups[axis]), {})[residual_exp] = c

    terms = [
        SliceTerm(axis, axis_mono, ReducedPolynomial(p, (k - 1) * n, residual_terms))
        for (axis, axis_mono), residual_terms in sorted(
            buckets.items(), key=lambda kv: (kv[0][0], _basis_key(kv[0][1]))
        )
    ]
    return SliceDecomposition(p, n, k, f.degree(), tuple(terms))


def sum_grid_values(
    f: ReducedPolynomial, k: int, *, grid_limit: int = DEFAULT_GRID_LIMIT
) -> np.ndarray:
    """f evaluated at every coordinate sum: the dense (p^n)^k tensor grid."""
    p, n = f.modulus, f.dimension
    check_power(p, k * n, grid_limit, "sum grid points p**(k*n)", ResourceLimitError)
    size = p**n
    vals = values_on_cube(f)
    sum_index = _pairwise_sum_index(p, n)
    acc = np.arange(size, dtype=np.int64)
    for _ in range(k - 1):
        acc = sum_index[acc[..., None], np.arange(size, dtype=np.int64)]
    return vals[acc]


def decomposition_values(
    dec: SliceDecomposition, *, grid_limit: int = DEFAULT_GRID_LIMIT
) -> np.ndarray:
    """Evaluate the decomposition sum on the full grid, for reconstruction checks."""
    p, n, k = dec.modulus, dec.dimension, dec.arity
    check_power(p, k * n, grid_limit, "sum grid points p**(k*n)", ResourceLimitError)
    size = p**n
    digits = _cube_digits(p, n)
    total = np.zeros((size,) * k, dtype=np.int64)
    for term in dec.terms:
        axis_vals = monomial_values(digits, term.axis_monomial, p)
        residual_vals = values_on_cube(term.residual)
        residual_grid = residual_vals.reshape((size,) * (k - 1), order="F")
        residual_grid = np.expand_dims(residual_grid, axis=term.axis - 1)
        shape = [1] * k
        shape[term.axis - 1] = size
        total = (total + axis_vals.reshape(shape) * residual_grid) % p
    return total


def reconstruction_matches(
    dec: SliceDecomposition, f: ReducedPolynomial, *, grid_limit: int = DEFAULT_GRID_LIMIT
) -> bool:
    """Pointwise equality of the decomposition with f at coordinate sums."""
    return np.array_equal(
        decomposition_values(dec, grid_limit=grid_limit),
        sum_grid_values(f, dec.arity, grid_limit=grid_limit),
    )


def sum_tensor(
    f: ReducedPolynomial, points: PointSet, k: int, *, entry_limit: int = DEFAULT_ENTRY_LIMIT
) -> SumTensor:
    """Dense k-fold tensor T(a_1, ..., a_k) = f(a_1 + ... + a_k) over the point set."""
    if k < 1:
        raise ParameterError(f"arity must be >= 1, got {k}")
    if f.modulus != points.modulus or f.dimension != points.dimension:
        raise DimensionMismatchError("polynomial and point set disagree on modulus or dimension")
    points.require_nonempty("sum_tensor")
    check_power(len(points), k, entry_limit, "tensor entries |A|**k", ResourceLimitError)
    p, n = points.modulus, points.dimension
    pts = np.array(points.points, dtype=np.int64)
    acc = pts
    for _ in range(k - 1):
        acc = add_points(acc[..., None], pts, p, n)
    distinct, inverse = np.unique(acc, return_inverse=True)
    fvals = values_at(f, point_digits(distinct, p, n))
    values = fvals[inverse].reshape(acc.shape)
    values.setflags(write=False)
    return SumTensor(p, k, points, values, f)


def diagonal_slice_rank_bounds(tensor: SumTensor) -> DiagonalReport:
    """Diagonality check and the resulting slice-rank lower bound.

    When every entry off the equal-index diagonal vanishes, the slice rank
    equals the count of nonzero diagonal entries (diagonal-tensor lemma,
    taken as an oracle); otherwise no lower bound is claimed.
    """
    vals = tensor.values
    m = len(tensor.axis_points)
    diag = vals[tuple(np.arange(m) for _ in range(tensor.arity))]
    diag_nonzero = int(np.count_nonzero(diag))
    is_diagonal = int(np.count_nonzero(vals)) == diag_nonzero
    return DiagonalReport(
        is_diagonal=is_diagonal,
        lower_bound=diag_nonzero if is_diagonal else 0,
        nonzero_diagonal_count=diag_nonzero,
    )
