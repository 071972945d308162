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

`reconstruction_matches` checks that identity by coefficients: both sides
are reduced polynomials in k*n variables, and a reduced polynomial
represents each function once, so equal coefficients means equal values at
every point of F_p^(kn). It shares no coefficient logic with the
decomposition: f(X^1 + ... + X^k) comes from `ReducedPolynomial.multiply`,
not from the multinomial formula, and no axis is chosen, the terms are only
put back in their blocks.

The rank is taken in coefficient space (Croot-Lev-Pach). Expanding each term,
P(x + y) = sum over a, b of c_{a+b} (a+b)!/(a! b!) x^a y^b, over the pairs
whose sum a + b is still reduced (every exponent below p); g! = prod_j g_j!
is a unit mod p. So M = E D^-1 H D^-1 E^T, where E is the invertible
evaluation matrix of the reduced monomials on F_p^n, D = diag(a!), and
H[a, b] = h_{a+b} with h_g = c_g g!, and 0 where a + b leaves the reduced
range. Hence rank M = rank H, and row a of H is zero unless a divides a term
of P. Each field feeds the nonzero rows of H, monomials by descending degree:

- p = 2: g! = 1 and H[a, b] = c_{a | b} for disjoint a, b. Row a, as an
  integer with bit b = H[a, b] (bit-space layout of `sumsetvc.chars`), is
  P's coefficient mask translated by a (its `sym_diff` image) ANDed with the
  char of the masks disjoint from a. For j not in a, row a + {j} is row a
  shifted down by 2**j with bit j of every mask then clear, so the rows are
  built one coordinate at a time, as `_images` builds its rows; no dense
  matrix is built.
- p > 2: one cached table of the encoded sums a + b gathers H from h.

The other direction is the diagonal lower bound: a k-fold tensor that
vanishes off the equal-index diagonal has slice rank equal to its number
of nonzero diagonal entries. That fact is used as a stated oracle; no
general slice-rank computation is attempted here.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, product

import numpy as np

from .chars import _coord_masks
from .errors import DimensionMismatchError, ParameterError, ResourceLimitError
from .families import PointSet, add_points, check_power, encode_point
from .linalg import FieldMatrix, rank, rank_gf2_packed
from .polynomials import (
    CUBE_MATERIALIZE_LIMIT,
    ReducedPolynomial,
    _basis_key,
    _cube_digits,
    monomial_count,
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


def clp_matrix(poly: ReducedPolynomial, *, point_limit: int = DEFAULT_POINT_LIMIT) -> FieldMatrix:
    """The p^n x p^n matrix M[x, y] = P(x + y), rows/columns in encoded point order."""
    p, n = poly.modulus, poly.dimension
    check_power(p, n, point_limit, "matrix side p**n", ResourceLimitError)
    vals = values_on_cube(poly)
    idx = np.arange(p**n, dtype=np.int64)
    return FieldMatrix(p, vals[add_points(idx[:, None], idx[None, :], p, n)])


@lru_cache(maxsize=1)
def _degree_order(p: int, n: int) -> np.ndarray:
    """The encoded reduced monomials by descending degree: a stable argsort
    of the digit sum, so encoded order within a degree."""
    return np.argsort(-sum(_cube_digits(p, n)), kind="stable")


@lru_cache(maxsize=1)
def _monomial_sum_table(p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The degree order and the int32 table of monomial sums in that order:
    entry (i, j) is the encoded order[i] + order[j], or p**n where an
    exponent reaches p. Adding the encoded integers carries exactly there,
    and each carry lowers the digit sum by p - 1. One is cached, as a scan
    uses one (p, n)."""
    size = p**n
    digit_sums = sum(point_digits(np.arange(2 * size, dtype=np.int64), p, n + 1)).astype(np.int32)
    order = _degree_order(p, n)
    degrees = digit_sums[order]
    table = order.astype(np.int32)[:, None] + order.astype(np.int32)[None, :]
    table[degrees[:, None] + degrees[None, :] != digit_sums[table]] = size
    table.setflags(write=False)
    return order, table


def _factorials(p: int, top: int) -> list[int]:
    """e! mod p for e = 0 .. top; each is a unit while top < p."""
    return list(accumulate(range(1, top + 1), lambda a, b: a * b % p, initial=1))


def polynomial_method_bound(p: int, n: int, d: int, k: int) -> int:
    """k * #monomials of degree <= d // k: CLP rank (k = 2), slice terms, p-fold sumsets (k = p)."""
    return k * monomial_count(p, n, d // k)


def verify_clp_bound(
    poly: ReducedPolynomial, *, point_limit: int = DEFAULT_POINT_LIMIT
) -> CLPBoundReport:
    """Check rank(M) <= 2 * #monomials(degree <= floor(deg P / 2)).

    rank M is taken as the rank of the coefficient matrix H of P(x + y)
    (module docstring), under the guards of clp_matrix: its nonzero rows, by
    descending degree of their monomial, as bit-space integers over F_2 and
    as a gathered block through `rank` otherwise.
    """
    p, n, d = poly.modulus, poly.dimension, poly.degree()
    size = check_power(p, n, point_limit, "matrix side p**n", ResourceLimitError)
    check_power(p, n, CUBE_MATERIALIZE_LIMIT, "cube points p**n", ResourceLimitError)
    if p == 2:
        rows = np.array([sum(1 << encode_point(expvec, 2) for expvec in poly.terms)], dtype=object)
        for j, low in enumerate(_coord_masks(n)):  # row a + {j}: row a shifted down by 2**j
            rows = np.concatenate((rows, (rows >> (1 << j)) & low))
        r = rank_gf2_packed(row for row in rows[_degree_order(2, n)].tolist() if row)
    else:
        fact = _factorials(p, min(d, p - 1))
        h = np.zeros(size + 1, dtype=np.int64)  # h[size] = 0 for the sums that leave the range
        for expvec, coeff in poly.terms.items():
            h[encode_point(expvec, p)] = coeff * math.prod(fact[e] for e in expvec) % p
        table = _monomial_sum_table(p, n)[1]
        live = np.flatnonzero((h != 0)[table].any(axis=1))
        r = rank(FieldMatrix(p, h[table[np.ix_(live, live)]]))
    bound = polynomial_method_bound(p, n, d, 2)
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
    fact = _factorials(p, min(f.degree(), p - 1))  # every exponent that occurs
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


def reconstruction_matches(
    dec: SliceDecomposition, f: ReducedPolynomial, *, grid_limit: int = DEFAULT_GRID_LIMIT
) -> bool:
    """Coefficient equality of the decomposition with f(X^1 + ... + X^k).

    The terms are summed into one dict of k*n-variable monomials, each axis
    monomial in block `axis` and the residual's blocks in the other axes in
    ascending order. Then each term of f is expanded and subtracted: x_j^e
    becomes (sum of x_j's k axis copies)^e, powers built by `multiply`, and
    the coordinates' copies are disjoint, so their exponents just join. The
    terms go by ascending largest exponent, so the powers are built in
    ascending order as they are first needed, and each is dropped once no
    term still to expand uses it. The two match iff nothing is left; rings
    that differ never match.
    """
    p, n, k = dec.modulus, dec.dimension, dec.arity
    check_power(p, k * n, grid_limit, "sum grid points p**(k*n)", ResourceLimitError)
    if (f.modulus, f.dimension) != (p, n):
        return False
    diff: dict[tuple[int, ...], int] = {}

    def add(mono: tuple[int, ...], c: int) -> None:
        c = (diff.pop(mono, 0) + c) % p
        if c:
            diff[mono] = c

    for term in dec.terms:
        cut = (term.axis - 1) * n
        for rest, c in term.residual.terms.items():
            add(rest[:cut] + term.axis_monomial + rest[cut:], c)
    copies = ReducedPolynomial(p, k, {tuple(int(i == a) for i in range(k)): 1 for a in range(k)})
    uses = Counter(e for expvec in f.terms for e in set(expvec))  # exponent -> terms left using it
    power, top = ReducedPolynomial.constant(p, k, 1), 0  # the newest power builds the next
    powers = {0: power}  # those a term left still uses
    for expvec, coeff in sorted(f.terms.items(), key=lambda term: max(term[0])):
        while top < max(expvec):
            power, top = power.multiply(copies), top + 1
            if uses[top]:
                powers[top] = power
        for parts in product(*(powers[e].terms.items() for e in expvec)):
            blocks = zip(*(g for g, _ in parts))  # g: x_j's exponent on each axis
            add(tuple(chain.from_iterable(blocks)), -coeff * math.prod(c for _, c in parts))
        for e in set(expvec):
            uses[e] -= 1
            if not uses[e]:
                del powers[e]
    return not diff


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
