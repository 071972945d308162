"""Set families over [n] and point sets in F_p^n.

A family member is a bitmask: bit i-1 records ground element i. A point of
F_p^n packs its digits in base p, least-significant digit first, so digit
i-1 is coordinate i; under this encoding the 0/1 embedding of a bitmask
into F_2^n is the identity on integers. Both containers are immutable,
deduplicated and sorted ascending by numeric value, which fixes one
canonical serialization per family.

Family text format (read and written by the CLI):

    # comment lines start with '#'
    n=<dimension> p=<modulus>
    <one member per line: exactly n digits, least-significant digit first>

Empty families are representable values; every analytical operation
rejects them with EmptyFamilyError.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import accumulate, combinations, product, starmap
from typing import Iterable

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyFamilyError,
    FamilyFormatError,
    ParameterError,
    ResourceLimitError,
)
from .sampling import SplitMix64, sample_distinct

# p**n beyond this no longer fits an exactly-representable single word key.
ENCODING_LIMIT = 1 << 48

# materializing every point of F_p^n, or more family members than this, is
# only sane well below the encoding guard
CUBE_MATERIALIZE_LIMIT = 1 << 26

# k_fold_sumset adds at most this many pairs per array, so its memory stays
# linear in the output however large |A| * |(k-1).A| grows.
SUMSET_CHUNK = 1 << 20

PAIRWISE_OPS = ("sym_diff", "intersect", "union")

_PAIRWISE_FN = {
    "sym_diff": operator.xor,
    "intersect": operator.and_,
    "union": operator.or_,
}


@lru_cache(maxsize=256)
def is_prime(m: int) -> bool:
    """Trial-division primality test, memoized: every modulus check repeats it."""
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    f = 3
    while f * f <= m:
        if m % f == 0:
            return False
        f += 2
    return True


def check_modulus(p: int) -> None:
    """Reject any modulus the exact kernels cannot use.

    The numpy kernels multiply two residues in int64, so p must be a prime
    with p * p < 2**63; larger primes would wrap around silently.
    """
    if p * p >= 1 << 63:
        raise ParameterError(f"modulus {p} is too large: exact int64 arithmetic needs p**2 < 2**63")
    if not is_prime(p):
        raise ParameterError(f"modulus must be prime, got {p}")


def check_power(base: int, exp: int, limit: int, what: str, error: type[Exception]) -> int:
    """base**exp when it is at most limit; otherwise raise error.

    The one policy for every size guard on a power (p**n cubes, sum grids,
    |A|**k tensors). base**exp >= 2**((bits(base)-1)*exp), so a power that
    far exceeds limit is rejected before it is built, and the message names
    base and exponent, never a value that may be too long to print.
    """
    if (base.bit_length() - 1) * exp < limit.bit_length():
        value = base**exp
        if value <= limit:
            return value
    raise error(f"{what} = {base}**{exp} exceeds the guard {limit}")


def binom_sum(n: int, d: int) -> int:
    """Partial binomial sum C(n,0) + ... + C(n,min(d,n)), exact."""
    if n < 0:
        raise ParameterError(f"n must be nonnegative, got {n}")
    if d < 0:
        raise ParameterError(f"d must be nonnegative, got {d}")
    return sum(math.comb(n, i) for i in range(min(d, n) + 1))


def _check_canonical(values: tuple[int, ...], limit: int, what: str, space: str, build: str) -> None:
    """Both containers' canonical-order check: a tuple (the kernels hash and
    re-read it), each value above the last (none negative), below limit."""
    if not isinstance(values, tuple):
        raise ParameterError(f"{what}s must be a tuple, got {type(values).__name__}; use {build} for any iterable")
    prev = -1
    for value in values:
        if value <= prev:
            raise ParameterError(f"{what}s must be strictly increasing (canonical order)")
        if value >= limit:
            raise ParameterError(f"{what} {value} out of range for {space}")
        prev = value


@dataclass(frozen=True)
class SetFamily:
    """A family of subsets of [n], members held as ascending bitmasks."""

    ground_size: int
    members: tuple[int, ...]

    def __post_init__(self):
        if self.ground_size < 1:
            raise ParameterError(f"ground_size must be >= 1, got {self.ground_size}")
        size = self.ground_size
        _check_canonical(self.members, 1 << size, "member", f"ground size {size}", "SetFamily.from_masks")

    @classmethod
    def from_masks(cls, ground_size: int, masks: Iterable[int]) -> "SetFamily":
        """Canonicalize: deduplicate and sort ascending."""
        return cls(ground_size, tuple(sorted(set(masks))))

    def __len__(self) -> int:
        return len(self.members)

    def require_nonempty(self, operation: str) -> None:
        if not self.members:
            raise EmptyFamilyError(f"{operation} requires a nonempty family")


@dataclass(frozen=True)
class PointSet:
    """A subset of F_p^n, points held as ascending base-p packed integers."""

    modulus: int
    dimension: int
    points: tuple[int, ...]

    def __post_init__(self):
        check_modulus(self.modulus)
        if self.dimension < 1:
            raise ParameterError(f"dimension must be >= 1, got {self.dimension}")
        size = check_power(
            self.modulus, self.dimension, ENCODING_LIMIT, "exact-encoding size p**n", ParameterError
        )
        _check_canonical(self.points, size, "point", f"F_{self.modulus}^{self.dimension}", "PointSet.from_points")

    @classmethod
    def from_points(cls, modulus: int, dimension: int, points: Iterable[int]) -> "PointSet":
        """Canonicalize: deduplicate and sort ascending."""
        return cls(modulus, dimension, tuple(sorted(set(points))))

    def __len__(self) -> int:
        return len(self.points)

    def require_nonempty(self, operation: str) -> None:
        if not self.points:
            raise EmptyFamilyError(f"{operation} requires a nonempty point set")


def decode_point(point: int, p: int, n: int) -> tuple[int, ...]:
    """Base-p digits of an encoded point, coordinate 1 first."""
    digits = []
    for _ in range(n):
        digits.append(point % p)
        point //= p
    return tuple(digits)


def encode_point(digits: Iterable[int], p: int) -> int:
    """Pack base-p digits (coordinate 1 first) into an integer."""
    value = 0
    weight = 1
    for d in digits:
        value += d * weight
        weight *= p
    return value


def add_points(a, b, p: int, n: int):
    """Digitwise sum mod p of two encoded points.

    Works on Python ints and elementwise, with broadcasting, on int64 arrays:
    a + b less p**(j+1) for each digit j whose two digits sum to p or more,
    one carry test per digit.
    """
    if p == 2:
        return a ^ b
    out = a + b
    carry = p
    for _ in range(n):
        a, da = divmod(a, p)
        b, db = divmod(b, p)
        out -= (da >= p - db) * carry
        carry *= p
    return out


@dataclass(frozen=True)
class FamilyKind:
    """Named family generators: lowweight(d), highweight(d), powerset, random(size, seed)."""

    name: str
    weight: int | None = None
    size: int | None = None
    seed: int | None = None

    _NAMES = ("lowweight", "highweight", "powerset", "random")

    def __post_init__(self):
        if self.name not in self._NAMES:
            raise ParameterError(f"unknown family kind {self.name!r}")
        if self.name in ("lowweight", "highweight"):
            if self.weight is None or self.weight < 0:
                raise ParameterError(f"{self.name} requires a weight bound d >= 0")
        if self.name == "random":
            if self.size is None or self.size < 1:
                raise ParameterError("random kind requires a size >= 1")
            if self.seed is None:
                raise ParameterError("random kind requires a seed")

    @classmethod
    def lowweight(cls, d: int) -> "FamilyKind":
        return cls("lowweight", weight=d)

    @classmethod
    def highweight(cls, d: int) -> "FamilyKind":
        return cls("highweight", weight=d)

    @classmethod
    def powerset(cls) -> "FamilyKind":
        return cls("powerset")

    @classmethod
    def random(cls, size: int, seed: int) -> "FamilyKind":
        return cls("random", size=size, seed=seed)


def _weight_at_most(n: int, d: int) -> list[int]:
    masks = []
    for w in range(min(d, n) + 1):
        for positions in combinations(range(n), w):
            mask = 0
            for pos in positions:
                mask |= 1 << pos
            masks.append(mask)
    return masks


def generate_family(n: int, kind: FamilyKind) -> SetFamily:
    """Materialize a named family over [n].

    random(size, seed) draws `size` distinct masks uniformly without
    replacement using Floyd's algorithm over a SplitMix64 stream seeded
    with `seed`; identical seeds reproduce identical families. A family of
    more than CUBE_MATERIALIZE_LIMIT members is refused before any is built.
    """
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    if kind.name == "powerset":
        check_power(2, n, CUBE_MATERIALIZE_LIMIT, "family members 2**n", ResourceLimitError)
        return SetFamily(n, tuple(range(1 << n)))
    if kind.name in ("lowweight", "highweight"):
        if kind.weight > n:
            raise ParameterError(f"weight bound {kind.weight} exceeds ground size {n}")
        counts = accumulate(math.comb(n, w) for w in range(kind.weight + 1))
        if any(count > CUBE_MATERIALIZE_LIMIT for count in counts):
            raise ResourceLimitError(
                f"family members C({n}, <={kind.weight}) exceed the guard {CUBE_MATERIALIZE_LIMIT}"
            )
        low = _weight_at_most(n, kind.weight)
        if kind.name == "lowweight":
            return SetFamily.from_masks(n, low)
        full = (1 << n) - 1
        return SetFamily.from_masks(n, (full ^ m for m in low))
    # random
    if kind.size > (1 << n):
        raise ParameterError(f"cannot draw {kind.size} distinct masks over ground size {n}")
    if kind.size > CUBE_MATERIALIZE_LIMIT:
        raise ResourceLimitError(f"random family size exceeds the guard {CUBE_MATERIALIZE_LIMIT}")
    gen = SplitMix64(kind.seed)
    return SetFamily(n, tuple(sample_distinct(1 << n, kind.size, gen)))


def pairwise_family(a: SetFamily, b: SetFamily, op: str) -> SetFamily:
    """The family {S op T : S in a, T in b} for op in sym_diff/intersect/union.

    More than CUBE_MATERIALIZE_LIMIT pairs are refused before any is built.
    """
    if op not in _PAIRWISE_FN:
        raise ParameterError(f"unknown pairwise op {op!r}; expected one of {PAIRWISE_OPS}")
    if a.ground_size != b.ground_size:
        raise DimensionMismatchError(
            f"ground sizes differ: {a.ground_size} vs {b.ground_size}"
        )
    a.require_nonempty("pairwise_family")
    b.require_nonempty("pairwise_family")
    if len(a) * len(b) > CUBE_MATERIALIZE_LIMIT:
        raise ResourceLimitError(
            f"pairs |A|*|B| = {len(a)}*{len(b)} exceeds the guard {CUBE_MATERIALIZE_LIMIT}"
        )
    fn = _PAIRWISE_FN[op]
    return SetFamily.from_masks(a.ground_size, set(starmap(fn, product(a.members, b.members))))


def k_fold_sumset(a: PointSet, k: int) -> PointSet:
    """The k-fold sumset {a_1 + ... + a_k : a_i in a} with coordinatewise sums mod p.

    Computed by iterated accumulation (k.A = A + (k-1).A as sets), deduplicating
    after every step; exact and far cheaper than enumerating all |A|**k tuples.
    Each step sums the pairs in arrays of at most SUMSET_CHUNK entries.
    """
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    a.require_nonempty("k_fold_sumset")
    p, n = a.modulus, a.dimension
    points = np.array(a.points, dtype=np.int64)
    acc = points
    rows = max(1, SUMSET_CHUNK // len(points))
    for _ in range(k - 1):
        chunks = (
            add_points(acc[i : i + rows, None], points, p, n).ravel()
            for i in range(0, len(acc), rows)
        )
        acc = reduce(_sorted_union, chunks, np.empty(0, dtype=np.int64))
    return PointSet(p, n, tuple(acc.tolist()))


def _sorted_union(seen: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    """The distinct values of both arrays, ascending: sorted, then each kept
    where it differs from its left neighbour (np.union1d imports numpy.ma)."""
    values = np.concatenate((seen, chunk))
    values.sort()
    keep = np.empty(len(values), dtype=bool)
    keep[:1] = True
    np.not_equal(values[1:], values[:-1], out=keep[1:])
    return values[keep]


def embed_01(a: SetFamily, p: int) -> PointSet:
    """Reinterpret bitmasks as 0/1 vectors inside F_p^n."""
    check_modulus(p)
    a.require_nonempty("embed_01")
    n = a.ground_size
    if p == 2:
        return PointSet(2, n, a.members)
    check_power(p, n, ENCODING_LIMIT, "exact-encoding size p**n", ParameterError)
    bits = np.array(a.members, dtype=np.int64)[:, None] >> np.arange(n) & 1
    # 0/1 digits keep the members' order: the highest differing bit decides both
    return PointSet(p, n, tuple((bits @ p ** np.arange(n)).tolist()))


def family_from_points(points: PointSet) -> SetFamily:
    """Inverse of the p=2 embedding: encoded F_2^n points are exactly bitmasks."""
    if points.modulus != 2:
        raise ParameterError("only F_2 point sets convert back to set families")
    return SetFamily(points.dimension, points.points)


def format_family_text(points: PointSet) -> str:
    """Serialize to the family text format (canonical member order)."""
    p, n = points.modulus, points.dimension
    if p > 7:
        raise ParameterError("family text format uses single-character digits (p <= 7)")
    lines = [f"n={n} p={p}"]
    for pt in points.points:
        lines.append("".join(str(d) for d in decode_point(pt, p, n)))
    return "\n".join(lines) + "\n"


def parse_digits(text: str, p: int) -> list[int]:
    """The characters of text as digits; each must be an ASCII digit below p."""
    allowed = "0123456789"[:p]
    for ch in text:
        if ch not in allowed:
            raise ParameterError(f"digit {ch!r} out of range for p={p}")
    return [int(ch) for ch in text]


def parse_natural(text: str) -> int:
    """text as an int, in ASCII digits only; int() would also take signs, '_', spaces, other digits."""
    parse_digits(text, 10)  # raises on any other character; int() raises on empty text
    return int(text)


def parse_family_text(text: str) -> PointSet:
    """Parse the family text format; errors carry the offending line number."""
    header: tuple[int, int] | None = None
    points: list[int] = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            parts = line.split()
            if (
                len(parts) != 2
                or not parts[0].startswith("n=")
                or not parts[1].startswith("p=")
            ):
                raise FamilyFormatError("expected header 'n=<int> p=<int>'", lineno)
            try:
                n = parse_natural(parts[0][2:])
                p = parse_natural(parts[1][2:])
            except ValueError:
                raise FamilyFormatError("expected header 'n=<int> p=<int>'", lineno) from None
            if n < 1:
                raise FamilyFormatError(f"dimension must be >= 1, got {n}", lineno)
            if p > 7:
                raise FamilyFormatError("text format supports single-digit moduli (p <= 7)", lineno)
            if not is_prime(p):
                raise FamilyFormatError(f"modulus must be prime, got {p}", lineno)
            # before any member is encoded: each costs time quadratic in n
            check_power(p, n, ENCODING_LIMIT, "exact-encoding size p**n", ParameterError)
            header = (n, p)
            continue
        n, p = header
        if len(line) != n:
            raise FamilyFormatError(f"expected {n} digits, got {len(line)}", lineno)
        try:
            digits = parse_digits(line, p)
        except ParameterError as exc:
            raise FamilyFormatError(str(exc), lineno) from None
        points.append(encode_point(digits, p))
    if header is None:
        raise FamilyFormatError("missing header line 'n=<int> p=<int>'", last_line or 1)
    return PointSet.from_points(header[1], header[0], points)
