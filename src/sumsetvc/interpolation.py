"""Interpolation degree of point sets and minimal representing degree.

deg_on_set(f) is the least total degree of a reduced polynomial agreeing
with the partial function f everywhere on its domain; int_deg(A) is the
least d at which every function on A is realizable at degree d, i.e. the
first d where the degree-<=d monomial evaluation columns span all of F_p^A.
Both are computed with one incremental elimination state that absorbs
monomial columns grade by grade, so the cost is a single pass up to the
answer rather than one elimination per candidate degree.

int_deg spans the smaller side of the partition X ⊔ Y = F_p^n. Write H_X(d)
for the rank after grade d (the affine Hilbert function) and dH_X(d) =
H_X(d) - H_X(d-1); int_deg(X) is the largest d with dH_X(d) > 0. F_p^n is
the complete intersection of the x_i^p - x_i, with socle degree
s = (p-1)n, and linkage gives dH_X(d) + dH_Y(s - d) = dH_cube(d), where
dH_cube(d) counts the reduced monomials of degree d (Davis-Geramita-
Orecchia, Proc. AMS 93, 1985; Croot-Lev-Pach, Ann. Math. 185, 2017). The
map a -> (p-1) - a on reduced exponents gives dH_cube(s - e) = dH_cube(e),
so when X holds more than half the cube, int_deg(X) = s - e for the first
grade e of Y's span whose rank step falls short of that grade's size: one
pass over Y's grades, which stops there.

Also here: the constructive side of the bound int_deg <= VC-dim for p=2.
A monomial on an unshattered coordinate set S vanishes against the absent
pattern: the product of (x_i + v_i + 1) over i in S is identically zero on
the family, and expanding it rewrites x_S as a sum of strictly smaller
monomials, recursively pushing every monomial below the VC dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress

import numpy as np

from .errors import DimensionMismatchError, ParameterError, WitnessNotFoundError
from .families import PointSet, SetFamily, decode_point
from .linalg import FieldMatrix, SpanTrackerGF2, SpanTrackerModP
from .polynomials import (
    MonomialBasis,
    ReducedPolynomial,
    _grade,
    point_digits,
)
from .vc import vc_dim


@dataclass(frozen=True)
class PartialFunction:
    """Field values attached to a point set, aligned with its canonical order."""

    domain: PointSet
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.domain.points):
            raise ParameterError(
                f"{len(self.values)} values for {len(self.domain.points)} domain points"
            )
        p = self.domain.modulus
        for v in self.values:
            if not 0 <= v < p:
                raise ParameterError(f"value {v} out of range for F_{p}")


def evaluation_matrix(domain: PointSet, basis: MonomialBasis) -> FieldMatrix:
    """Entry (i, j) = basis monomial j at domain point i, mod p (0^0 = 1)."""
    if domain.modulus != basis.modulus or domain.dimension != basis.dimension:
        raise DimensionMismatchError(
            "domain and basis disagree on modulus or dimension"
        )
    table = _PowerTable(domain.modulus, domain.dimension, domain.points)
    return FieldMatrix(domain.modulus, table.block(basis.monomials).T)


class _PowerTable:
    """Powers of the points' coordinates: powers[j, e] = x_j^e mod p at every point.

    The table starts at e = 0 (all ones, so 0^0 = 1) and is extended one
    exponent at a time, each row the one before times the digit column mod p,
    up to the largest exponent a block has asked for; its storage doubles
    when full. So a graded span holds min(d, p - 1) + 1 exponents after grade d.
    """

    __slots__ = ("modulus", "_digits", "_powers", "_top")

    def __init__(self, p: int, n: int, points: tuple[int, ...]):
        self.modulus = p
        self._digits = np.array(point_digits(points, p, n), dtype=np.int64)
        self._powers = np.ones((n, 1, len(points)), dtype=np.int64)
        self._top = 0  # the largest exponent held

    def block(self, expvecs) -> np.ndarray:
        """Row m = monomial expvecs[m] at every point: the product over
        coordinates j of powers[j, e_j], reduced mod p once at the end. The
        product is below p**n, which the encoding guard of every PointSet
        keeps at most 2**48, so it is exact in int64."""
        n = len(self._digits)
        exps = np.array(expvecs, dtype=np.int64).reshape(-1, n)
        self._extend(int(exps.max(initial=0)))
        out = self._powers[0, exps[:, 0]]
        for j in range(1, n):
            out *= self._powers[j, exps[:, j]]
        out %= self.modulus
        return out

    def _extend(self, top: int) -> None:
        while top >= self._powers.shape[1]:
            self._powers = np.concatenate((self._powers, np.empty_like(self._powers)), axis=1)
        powers = self._powers
        for e in range(self._top + 1, top + 1):
            np.remainder(powers[:, e - 1] * self._digits, self.modulus, out=powers[:, e])
        self._top = max(self._top, top)


def _grade_columns(p: int, n: int, points: tuple[int, ...]):
    """A function d -> the columns of the degree-d monomials on the points,
    in canonical order and in batches of at most |X| = len(points).

    For p = 2 a batch is a list of integers, bit i set where the monomial is 1
    at point i: an encoded point is the bitmask of its coordinates, so
    coords[j] (bit i = coordinate j of point i) ANDed over the monomial's
    variables is the column, with no array work. Otherwise a batch is one
    2-D int64 block, row m the m-th monomial, read from one _PowerTable of
    the points.
    """
    size = max(1, len(points))
    build = _PowerTable(p, n, points).block if p != 2 else _bitmask_columns(n, points)

    def columns(d: int):
        grade = _grade(p, n, d)
        return (build(grade[start : start + size]) for start in range(0, len(grade), size))

    return columns


def _bitmask_columns(n: int, points: tuple[int, ...]):
    """The p = 2 column builder of _grade_columns: monomials -> their bitmask columns."""
    coords = [0] * n
    bit = 1
    for x in points:
        j = 0
        while x:
            if x & 1:
                coords[j] |= bit
            x >>= 1
            j += 1
        bit <<= 1
    full = bit - 1

    def build(expvecs) -> list[int]:
        cols = []
        for expvec in expvecs:
            col = full
            for c in compress(coords, expvec):
                col &= c
            cols.append(col)
        return cols

    return build


def _graded_span(p: int, n: int, points: tuple[int, ...]):
    """Yield (d, tracker) once the tracker holds every monomial column of degree <= d.

    Columns (see _grade_columns) go to the field's span tracker in batches of
    at most |X| = len(points), so the mod-p span holds at most one |X| x |X|
    block beyond its pivot rows. A grade is built only when reached and fed until
    it runs out or the rank is |X| (a batch that adds nothing does not stop it).
    """
    columns = _grade_columns(p, n, points)
    tracker = SpanTrackerGF2() if p == 2 else SpanTrackerModP(p)
    full = len(points)
    for d in range((p - 1) * n + 1):
        batches = columns(d)
        while tracker.rank < full:
            batch = next(batches, None)
            if batch is None:
                break
            tracker.add(batch)
        yield d, tracker
    raise AssertionError("the full reduced basis spans every function")


@lru_cache(maxsize=1 << 17)
def _int_deg_points(p: int, n: int, points: tuple[int, ...]) -> int:
    """int_deg of the points, spanned on the smaller side of X and F_p^n \\ X.

    On the complement Y the answer is s - e for the first grade e with
    dH_cube(e) > dH_Y(e), where dH_cube(e) = dH_cube(s - e) is the size of
    grade e (see the module docstring). The span stops at that grade, so Y
    is never spanned past the answer, and an empty Y gives s.
    """
    if 2 * len(points) <= p**n:
        return next(d for d, tracker in _graded_span(p, n, points) if tracker.rank == len(points))
    member = set(points)
    rest = tuple(x for x in range(p**n) if x not in member)
    spanned = 0  # H_Y of the previous grade
    for e, tracker in _graded_span(p, n, rest):
        if len(_grade(p, n, e)) > tracker.rank - spanned:
            return (p - 1) * n - e
        spanned = tracker.rank


def int_deg(domain: PointSet) -> int:
    """Least d such that every function on the domain has a degree-<=d representation."""
    domain.require_nonempty("int_deg")
    return _int_deg_points(domain.modulus, domain.dimension, domain.points)


def deg_on_set(f: PartialFunction) -> int:
    """Minimal degree of a reduced polynomial agreeing with f on its domain."""
    f.domain.require_nonempty("deg_on_set")
    p = f.domain.modulus
    if p == 2:
        target = sum(v << i for i, v in enumerate(f.values))
    else:
        target = np.array(f.values, dtype=np.int64)
    for d, tracker in _graded_span(p, f.domain.dimension, f.domain.points):
        if tracker.contains(target):
            return d


def find_unshattered_witness(family: SetFamily, subset_mask: int) -> dict[int, int]:
    """A 0/1 pattern on the given coordinates matched by no family member.

    Keys are 1-based ground elements of the subset; the returned pattern is
    the numerically smallest absent trace (bit j of the trace = value at the
    j-th smallest element).
    """
    family.require_nonempty("find_unshattered_witness")
    n = family.ground_size
    if not 0 < subset_mask < (1 << n):
        raise ParameterError(f"subset mask {subset_mask} out of range or empty")
    seen = {member & subset_mask for member in family.members}
    # submasks of the subset in ascending order, i.e. ascending traces
    sub = 0
    while sub in seen:
        if sub == subset_mask:
            raise WitnessNotFoundError(
                f"subset {subset_mask:#x} is shattered; every pattern occurs"
            )
        sub = (sub - subset_mask) & subset_mask
    return {
        i + 1: sub >> i & 1 for i in range(subset_mask.bit_length()) if subset_mask >> i & 1
    }


def represent_monomial(family: SetFamily, monomial_mask: int) -> ReducedPolynomial:
    """A multilinear polynomial of degree <= VC-dim agreeing with x_S on the family.

    Monomials at most the VC dimension are returned unchanged. Above it the
    coordinate set is unshattered, and the absent pattern v makes the product
    of (x_i + v_i + 1) over the set vanish on every member; expanding rewrites
    the monomial as the sum of x_T over all proper subsets T containing every
    coordinate with v_i = 1, which recurse downward. Memoized per monomial.
    """
    family.require_nonempty("represent_monomial")
    n = family.ground_size
    if not 0 <= monomial_mask < (1 << n):
        raise ParameterError(f"monomial mask {monomial_mask} out of range")
    bound = vc_dim(family)
    memo: dict[int, frozenset[int]] = {}

    def rep(mask: int) -> frozenset[int]:
        if mask.bit_count() <= bound:
            return frozenset((mask,))
        hit = memo.get(mask)
        if hit is not None:
            return hit
        pattern = find_unshattered_witness(family, mask)
        ones = 0
        for elem, bit in pattern.items():
            if bit:
                ones |= 1 << (elem - 1)
        free = mask & ~ones
        acc: set[int] = set()
        sub = free
        while True:
            cand = ones | sub
            if cand != mask:
                acc.symmetric_difference_update(rep(cand))
            if sub == 0:
                break
            sub = (sub - 1) & free
        result = frozenset(acc)
        memo[mask] = result
        return result

    return ReducedPolynomial(2, n, {decode_point(mask, 2, n): 1 for mask in rep(monomial_mask)})
