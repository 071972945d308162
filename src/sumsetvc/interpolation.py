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
Orecchia, Proc. AMS 93, 1985; Croot-Lev-Pach, Ann. Math. 185, 2017). So when
X holds more than half the cube, int_deg(X) is read off the span of Y, and
only Y's grades are built.

Also here: the constructive side of the bound int_deg <= VC-dim for p=2.
A monomial on an unshattered coordinate set S vanishes against the absent
pattern: the product of (x_i + v_i + 1) over i in S is identically zero on
the family, and expanding it rewrites x_S as a sum of strictly smaller
monomials, recursively pushing every monomial below the VC dimension.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, islice

import numpy as np

from .errors import DimensionMismatchError, ParameterError, WitnessNotFoundError
from .families import PointSet, SetFamily, decode_point
from .linalg import FieldMatrix, SpanTrackerGF2, SpanTrackerModP
from .polynomials import (
    MonomialBasis,
    ReducedPolynomial,
    _grade,
    monomial_count,
    monomial_values,
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
    p, n = domain.modulus, domain.dimension
    digits = point_digits(domain.points, p, n)
    out = np.empty((len(domain.points), len(basis.monomials)), dtype=np.int64)
    for j, expvec in enumerate(basis.monomials):
        out[:, j] = monomial_values(digits, expvec, p)
    return FieldMatrix(p, out)


def _grade_columns(p: int, n: int, points: tuple[int, ...]):
    """A function d -> the columns of the degree-d monomials on the points.

    For p = 2 a column is an integer with bit i set where the monomial is 1
    at point i: an encoded point is the bitmask of its coordinates, so
    coords[j] (bit i = coordinate j of point i) ANDed over the monomial's
    variables is the column, with no array work. Otherwise columns are
    monomial_values int64 vectors. Either way they come in canonical order.
    """
    if p != 2:
        digits = point_digits(points, p, n)
        return lambda d: (monomial_values(digits, expvec, p) for expvec in _grade(p, n, d))
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

    def columns(d: int):
        for expvec in _grade(2, n, d):
            col = full
            for c in compress(coords, expvec):
                col &= c
            yield col

    return columns


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
        grade = columns(d)
        while tracker.rank < full:
            batch = list(islice(grade, full))
            if not batch:
                break
            tracker.add(batch)
        yield d, tracker
    raise AssertionError("the full reduced basis spans every function")


@lru_cache(maxsize=1 << 17)
def _int_deg_points(p: int, n: int, points: tuple[int, ...]) -> int:
    """int_deg of the points, spanned on the smaller side of X and F_p^n \\ X.

    On the complement Y the answer is the largest d with
    dH_cube(d) > dH_Y(s - d) (see the module docstring); dH_Y is zero above
    int_deg(Y), so Y is spanned only that far, and an empty Y gives s.
    """
    size = p**n
    if 2 * len(points) <= size:
        for d, tracker in _graded_span(p, n, points):
            if tracker.rank == len(points):
                return d
    member = set(points)
    rest = tuple(x for x in range(size) if x not in member)
    steps = []  # steps[e] = dH_Y(e), the rank grade e adds on the complement Y
    spanned = 0
    for _, tracker in _graded_span(p, n, rest):
        steps.append(tracker.rank - spanned)
        spanned = tracker.rank
        if spanned == len(rest):
            break
    s = (p - 1) * n
    above = size  # monomial_count(p, n, d) for the current d
    for e, step in enumerate(steps):
        d = s - e
        below = monomial_count(p, n, d - 1) if d else 0
        if above - below > step:
            return d
        above = below
    return s - len(steps)


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
