"""Brute-force reference implementations the main code paths are checked
against. Everything here enumerates; nothing shares elimination or pruning
logic with the package."""

from __future__ import annotations

from itertools import product

from sumsetvc.families import decode_point, encode_point
from sumsetvc.polynomials import monomial_basis


def naive_is_shattered(members, candidate: int) -> bool:
    """Direct definition: the set of raw intersections realizes every subset."""
    patterns = {m & candidate for m in members}
    return len(patterns) == 1 << candidate.bit_count()


def naive_vc_dim(members, n: int) -> int:
    """Scan all 2^n candidates without pruning."""
    best = 0
    for cand in range(1 << n):
        if naive_is_shattered(members, cand):
            best = max(best, cand.bit_count())
    return best


def mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if mask >> i & 1)


def set_to_mask(elems) -> int:
    mask = 0
    for e in elems:
        mask |= 1 << (e - 1)
    return mask


def naive_pairwise(a_members, b_members, op: str) -> tuple[int, ...]:
    """Pairwise family via element sets, independent of bit twiddling."""
    ops = {
        "sym_diff": lambda x, y: x ^ y,
        "intersect": lambda x, y: x & y,
        "union": lambda x, y: x | y,
    }
    fn = ops[op]
    out = {
        set_to_mask(fn(mask_to_set(s), mask_to_set(t)))
        for s in a_members
        for t in b_members
    }
    return tuple(sorted(out))


def naive_rank(rows, p: int) -> int:
    """Rank over F_p by row reduction on lists of Python ints (no numpy)."""
    m = [[int(x) % p for x in row] for row in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            # m[i] <- m[r][c] * m[i] - m[i][c] * m[r] clears column c without an inverse
            a, b = m[r][c], m[i][c]
            m[i] = [(a * x - b * y) % p for x, y in zip(m[i], m[r])]
        r += 1
    return r


def _naive_columns(points, p: int, n: int, d: int) -> list[list[int]]:
    """Direct pow values of every reduced monomial of degree <= d: one row per point."""
    # exponents above d cannot occur in degree <= d, so huge p enumerates little
    monomials = [
        e for e in product(range(min(p, d + 1)), repeat=n) if sum(e) <= d
    ]
    rows = []
    for pt in points:
        digits = decode_point(pt, p, n)
        row = []
        for e in monomials:
            val = 1
            for x, k in zip(digits, e):
                val = val * pow(x, k, p) % p
            row.append(val)
        rows.append(row)
    return rows


def naive_int_deg(points, p: int, n: int) -> int:
    """Smallest d whose degree-<=d monomial evaluations have rank |A| (naive_rank)."""
    for d in range((p - 1) * n + 1):
        if naive_rank(_naive_columns(points, p, n, d), p) == len(points):
            return d
    raise AssertionError("every function is realizable at full degree")


def naive_deg_on_set(points, p: int, n: int, values) -> int:
    """Smallest d at which appending the values as a column leaves the rank unchanged."""
    for d in range((p - 1) * n + 1):
        rows = _naive_columns(points, p, n, d)
        with_values = [row + [v] for row, v in zip(rows, values)]
        if naive_rank(rows, p) == naive_rank(with_values, p):
            return d
    raise AssertionError("every function is realizable at full degree")


def naive_k_fold(points, p: int, n: int, k: int) -> tuple[int, ...]:
    """Full |A|^k enumeration of ordered k-tuples, digitwise sums mod p."""
    out = set()
    for combo in product(points, repeat=k):
        digits = [0] * n
        for pt in combo:
            for i, d in enumerate(decode_point(pt, p, n)):
                digits[i] = (digits[i] + d) % p
        out.add(encode_point(digits, p))
    return tuple(sorted(out))


def _restrictions_at_degree(points, p: int, n: int, d: int) -> set[tuple[int, ...]]:
    """Every value vector achievable on the domain by a polynomial of degree <= d."""
    basis = monomial_basis(p, n, d)
    columns = []
    for expvec in basis.monomials:
        col = []
        for pt in points:
            digits = decode_point(pt, p, n)
            val = 1
            for x, e in zip(digits, expvec):
                val = val * pow(x, e, p) % p
            col.append(val)
        columns.append(tuple(col))
    achievable = set()
    m = len(points)
    for coeffs in product(range(p), repeat=len(columns)):
        vec = [0] * m
        for c, col in zip(coeffs, columns):
            if c:
                for i in range(m):
                    vec[i] = (vec[i] + c * col[i]) % p
        achievable.add(tuple(vec))
    return achievable


def brute_deg_on_set(points, p: int, n: int, values) -> int:
    """Smallest d whose degree-<=d polynomials realize the value vector."""
    target = tuple(values)
    for d in range((p - 1) * n + 1):
        if target in _restrictions_at_degree(points, p, n, d):
            return d
    raise AssertionError("every function is realizable at full degree")


def brute_int_deg(points, p: int, n: int) -> int:
    """Smallest d whose degree-<=d restrictions hit all p^|A| value vectors."""
    m = len(points)
    for d in range((p - 1) * n + 1):
        if len(_restrictions_at_degree(points, p, n, d)) == p**m:
            return d
    raise AssertionError("every function is realizable at full degree")


def naive_reed_muller(r: int, n: int) -> set[int]:
    """Every codeword of RM(r, n) as a char: the evaluations on F_2^n of every
    sum of distinct monomials x^S with |S| <= r, point by point (none for r < 0)."""
    monomials = [s for s in range(1 << n) if s.bit_count() <= r]
    words = set()
    for chosen in product((0, 1), repeat=len(monomials)):
        terms = [s for s, c in zip(monomials, chosen) if c]
        words.add(sum(1 << m for m in range(1 << n) if sum(s & ~m == 0 for s in terms) % 2))
    return words


class OracleScanState:
    """The scan accumulator as it was before its fast path: every record
    builds the ratio key and compares it with the kept extreme's."""

    def __init__(self, describe):
        self.describe = describe
        self.count = 0
        self.violations = []
        self.extreme = None

    @staticmethod
    def _key(lhs, rhs):
        if rhs == 0:
            return (1, 1) if lhs == 0 else (1 << 62, 1)
        return (lhs, rhs)

    @staticmethod
    def _tighter(ka, kb):
        return ka[0] * kb[1] > kb[0] * ka[1]

    def record(self, instance, lhs, rhs):
        self.count += 1
        key = self._key(lhs, rhs)
        tighter = self.extreme is None or self._tighter(key, self.extreme[0])
        if lhs > rhs or tighter:
            described = self.describe(instance)
            if lhs > rhs:
                self.violations.append({"instance": described, "lhs": lhs, "rhs": rhs})
            if tighter:
                extreme = {"instance": described, "lhs": lhs, "rhs": rhs, "ratio": key[0] / key[1]}
                self.extreme = (key, extreme)

    def merge(self, other):
        self.count += other.count
        self.violations.extend(other.violations)
        if other.extreme is not None and (self.extreme is None or self._tighter(other.extreme[0], self.extreme[0])):
            self.extreme = other.extreme
