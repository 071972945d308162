"""Executable theorem checks, scan harnesses, counterexample demos, and
finite-evidence searches for the two open questions.

Every theorem is checked in instance form as a bound inequality lhs <= rhs,
so no instance is vacuous. Each is stated once, in `_THEOREMS`, and each open
question once, in `_QUESTIONS`, over a kernel object on one SetFamily
(`_instance_kernels`, the reference) or on an int64 array of chars
(`_char_kernels`, n <= CHAR_MAX_N). Both scan modes take their chunks from
`_key_chunks`, one at a time: key arrays, or the instances a random scan draws.
Scans report the tightest instance seen (largest lhs/rhs) and collect
violations (build-failing); searches give labeled finite evidence, never extrapolated.
"""

from __future__ import annotations

import enum
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import repeat
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .chars import char_members, int_degs, pairwise_chars, popcounts, vc_dims
from .clp import DEFAULT_POINT_LIMIT, polynomial_method_bound, verify_clp_bound
from .errors import ParameterError, ResourceLimitError
from .families import (
    CUBE_MATERIALIZE_LIMIT,
    PAIRWISE_OPS,
    FamilyKind,
    SetFamily,
    binom_sum,
    check_modulus,
    check_power,
    decode_point,
    embed_01,
    generate_family,
    k_fold_sumset,
    pairwise_family,
)
from .interpolation import int_deg
from .polynomials import ReducedPolynomial, random_polynomial
from .sampling import SplitMix64, sample_distinct
from .vc import vc_dim

EXHAUSTIVE_MAX_N = 4
SEARCH_MAX_N = 8
CHUNK = 1 << 12


class TheoremId(enum.Enum):
    SAUER = "sauer"
    MAIN = "main"
    INTDEG_MAIN = "intdeg_main"
    INTDEG_LE_VC = "intdeg_le_vc"
    CLP_BOUND = "clp_bound"
    PSUMS = "psums"
    VC_MONOTONE = "vc_monotone"


def _coerce_theorem(theorem, p: int | None) -> TheoremId:
    """The TheoremId named, once p suits its table entry; scans call it before any draw."""
    try:
        theorem = TheoremId(theorem)
    except ValueError:
        names = ", ".join(t.value for t in TheoremId)
        raise ParameterError(f"unknown theorem {theorem!r}; expected one of {names}") from None
    if p is not None:
        check_modulus(p)
    elif _THEOREMS[theorem].needs_p:
        raise ParameterError(f"{theorem.value} requires a prime modulus p")
    return theorem


@dataclass
class VerificationReport:
    theorem: str
    parameters: dict
    seed: int | None
    instances_checked: int
    violations: list = field(default_factory=list)
    extremes: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class CounterexampleReport:
    op: str
    n: int
    d: int
    family_size: int
    vc_star: int
    half_bound: int
    witness: bool


@dataclass(frozen=True)
class EvidenceRow:
    question: str
    n: int
    d: int
    mode: str
    best_size: int
    binom_bound: int
    half_bound: int
    certificate: tuple[int, ...]
    instances_examined: int


@dataclass(frozen=True)
class EvidenceTable:
    note: str
    rows: tuple[EvidenceRow, ...]


EVIDENCE_NOTE = (
    "Finite-search evidence only. The open questions allow an O(1) exponent slack, "
    "so no computation at fixed n can refute them; columns show raw bounds so growth "
    "can be eyeballed across rows."
)


def _instance_dict(instance: SetFamily | ReducedPolynomial) -> dict:
    if isinstance(instance, SetFamily):
        return {"kind": "family", "n": instance.ground_size, "members": list(instance.members)}
    return {
        "kind": "polynomial",
        "p": instance.modulus,
        "n": instance.dimension,
        "terms": instance.to_term_list(),
    }


@lru_cache(maxsize=64)
def _instance_kernels(n: int, p: int | None = None) -> SimpleNamespace:
    """The kernel object k the statements below are written over, on one
    instance at a time: k.size, k.vc, k.int_deg (over F_2) and k.pair of
    families, k.binom(d) = sum of C(n, i) for i <= d, and k.least and
    k.every, the min and the short-circuit `and` of their arguments. It is
    the reference, and it runs random scans at every n, exhaustive psums and
    clp_bound scans, check_instance, open_question_constraint (so the
    exact search) and counterexample_demo; only exhaustive scans of the
    family theorems and the exhaustive search run on _char_kernels.
    Each kernel is looked up in this module when called."""
    return SimpleNamespace(
        n=n, p=p, size=len, least=min, every=all,
        vc=lambda a: vc_dim(a),
        int_deg=lambda a: int_deg(embed_01(a, 2)),
        pair=lambda a, b, op: pairwise_family(a, b, op),
        binom=lambda d: binom_sum(n, d),
    )


def _char_kernels(n: int) -> SimpleNamespace:
    """The same kernels on an int64 array of chars, one family per entry
    (n <= CHAR_MAX_N); every value is an array over the families."""
    binoms = np.array([binom_sum(n, d) for d in range(n + 1)])
    return SimpleNamespace(
        size=lambda a: popcounts(a),
        vc=lambda a: vc_dims(a, n),
        int_deg=lambda a: int_degs(a, n),
        pair=lambda a, b, op: pairwise_chars(a, b, n, op),
        binom=lambda d: binoms[d],
        least=lambda values: np.minimum.reduce(list(values)),
        every=lambda tests: np.logical_and.reduce(list(tests)),
    )


def _halved(k: SimpleNamespace, d):
    """The main theorem's bound on |A| when VC(A△A) = d: 2 * binom(d // 2)."""
    # polynomial_method_bound(2, n, d, 2), as a kernel lookup the char arrays can index
    return 2 * k.binom(d // 2)


def _psums(k: SimpleNamespace, family: SetFamily) -> tuple[int, int]:
    e = int_deg(k_fold_sumset(embed_01(family, k.p), k.p))
    return len(family), polynomial_method_bound(k.p, k.n, e, k.p)


def _clp_bound(k: SimpleNamespace, poly: ReducedPolynomial) -> tuple[int, int]:
    report = verify_clp_bound(poly)
    return report.rank, report.bound


class _Theorem(NamedTuple):
    inequality: Callable  # (k, A) -> (lhs, rhs) of lhs <= rhs; A is a family, or a polynomial for clp_bound
    on_chars: bool = True  # the char kernels evaluate it too; else one instance at a time
    needs_p: bool = False


# Each theorem stated once
_THEOREMS = {
    TheoremId.SAUER: _Theorem(lambda k, a: (k.size(a), k.binom(k.vc(a)))),
    TheoremId.MAIN: _Theorem(lambda k, a: (k.size(a), _halved(k, k.vc(k.pair(a, a, "sym_diff"))))),
    TheoremId.INTDEG_MAIN: _Theorem(lambda k, a: (k.size(a), _halved(k, k.int_deg(k.pair(a, a, "sym_diff"))))),
    TheoremId.INTDEG_LE_VC: _Theorem(lambda k, a: (k.int_deg(a), k.vc(a))),
    TheoremId.CLP_BOUND: _Theorem(_clp_bound, on_chars=False),
    TheoremId.PSUMS: _Theorem(_psums, on_chars=False, needs_p=True),
    TheoremId.VC_MONOTONE: _Theorem(lambda k, a: (k.vc(a), k.least(k.vc(k.pair(a, a, op)) for op in PAIRWISE_OPS))),
}


def check_instance(theorem, family: SetFamily, p: int | None = None) -> bool:
    """Evaluate one theorem instance; True means the inequality holds."""
    theorem = _coerce_theorem(theorem, p)
    family.require_nonempty("check_instance")
    if theorem is TheoremId.CLP_BOUND:
        raise ParameterError(
            "clp_bound instances are polynomials, not families; use the scan harnesses or verify_clp_bound"
        )
    lhs, rhs = _THEOREMS[theorem].inequality(_instance_kernels(family.ground_size, p), family)
    return lhs <= rhs


def _ratio_key(lhs: int, rhs: int) -> tuple[int, int]:
    if rhs == 0:
        return (1, 1) if lhs == 0 else (1 << 62, 1)
    return (lhs, rhs)


def _tighter(ka: tuple[int, int], kb: tuple[int, int]) -> bool:
    """True when ratio key ka strictly exceeds kb (exact cross-multiplication)."""
    return ka[0] * kb[1] > kb[0] * ka[1]


def _extreme_dict(instance: dict, lhs: int, rhs: int) -> dict:
    num, den = _ratio_key(lhs, rhs)
    return {"instance": instance, "lhs": lhs, "rhs": rhs, "ratio": num / den}


class _ScanState:
    """Accumulates count, violations and the tightest instance, in scan order.

    `describe` turns a recorded instance into its report dict; it runs only
    for the instances the state keeps, violations and new extremes.
    """

    def __init__(self, describe=_instance_dict):
        self.describe = describe
        self.count = 0
        self.violations: list[dict] = []
        self.extreme: tuple[tuple[int, int], dict] | None = None

    def record(self, instance, lhs: int, rhs: int) -> None:
        self.count += 1
        key = _ratio_key(lhs, rhs)
        tighter = self.extreme is None or _tighter(key, self.extreme[0])
        if lhs > rhs or tighter:
            described = self.describe(instance)
            if lhs > rhs:
                self.violations.append({"instance": described, "lhs": lhs, "rhs": rhs})
            if tighter:
                self.extreme = (key, _extreme_dict(described, lhs, rhs))

    def merge(self, other: "_ScanState") -> None:
        self.count += other.count
        self.violations.extend(other.violations)
        if other.extreme is not None and (
            self.extreme is None or _tighter(other.extreme[0], self.extreme[0])
        ):
            self.extreme = other.extreme


def _family_from_char(char: int, n: int) -> SetFamily:
    return SetFamily(n, char_members(char, n))


def _char_dict(char: int, n: int) -> dict:
    return _instance_dict(_family_from_char(char, n))


def _poly_from_coeff_mask(coeff_mask: int, n: int) -> ReducedPolynomial:
    return ReducedPolynomial(2, n, {decode_point(m, 2, n): 1 for m in char_members(coeff_mask, n)})


def _key_chunks(start: int, stop: int, build=partial(np.arange, dtype=np.int64)):
    """build(low, high) for each range of at most CHUNK keys in start .. stop - 1, in
    order, when the scan asks for it: by default an int64 array of the keys (chars, or
    F_2 coefficient masks for clp_bound); a random scan draws the instances it indexes."""
    for low in range(start, stop, CHUNK):
        yield build(low, min(low + CHUNK, stop))


def _check(theorem: TheoremId, p: int | None, n: int, chunk) -> _ScanState:
    """Check one chunk: an int64 array of keys (chars, or F_2 coefficient
    masks for clp_bound) in any order, or a list of sampled instances; the
    instances are recorded in the chunk's order."""
    inequality, on_chars, _ = _THEOREMS[theorem]
    if isinstance(chunk, np.ndarray):
        if on_chars:
            state = _ScanState(partial(_char_dict, n=n))
            lhs, rhs = inequality(_char_kernels(n), chunk)
            for char, left, right in zip(chunk.tolist(), lhs.tolist(), rhs.tolist()):
                state.record(char, left, right)
            return state
        make = _poly_from_coeff_mask if theorem is TheoremId.CLP_BOUND else _family_from_char
        chunk = map(make, chunk.tolist(), repeat(n))
    state = _ScanState()
    for instance in chunk:
        state.record(instance, *inequality(_instance_kernels(n, p), instance))
    return state


def _require_positive_n(n: int) -> None:
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")


def _scan(
    theorem: TheoremId, parameters: dict, seed, chunks, total: int, workers: int, progress
) -> VerificationReport:
    """Check `total` instances, given in chunks of CHUNK, inline or in a pool
    of at most `workers` processes; merge them in chunk order into one report."""
    if workers < 1:
        raise ParameterError(f"workers must be >= 1, got {workers}")
    p = parameters["p"]
    # a fork pool starts all max_workers processes at once: start no idle ones
    processes = min(workers, -(-total // CHUNK), os.cpu_count() or 1)
    state = _ScanState()
    with ProcessPoolExecutor(max_workers=processes) if processes > 1 else nullcontext() as pool:
        checks = map if pool is None else pool.map  # inline map holds no chunk once it is checked
        for chunk_state in checks(_check, repeat(theorem), repeat(p), repeat(parameters["n"]), chunks):
            state.merge(chunk_state)
            if progress is not None:
                progress(state.count, total)
    return VerificationReport(
        theorem=theorem.value,
        parameters=parameters,
        seed=seed,
        instances_checked=state.count,
        violations=state.violations,
        extremes=state.extreme[1] if state.extreme else None,
    )


def exhaustive_scan(
    theorem, n: int, p: int | None = None, *, workers: int = 1, progress=None
) -> VerificationReport:
    """Check every instance over ground size n (families, or F_2 polynomials
    for the rank-bound theorem). Instance space is chunked so long scans can
    run concurrently and report progress; the merged report is deterministic.
    """
    theorem = _coerce_theorem(theorem, p)
    _require_positive_n(n)
    if n > EXHAUSTIVE_MAX_N:
        raise ResourceLimitError(
            f"exhaustive scan over n = {n} enumerates 2**(2**{n}) instances; use random_scan"
        )
    if theorem is TheoremId.CLP_BOUND:
        if p not in (None, 2):
            raise ResourceLimitError(
                "exhaustive polynomial enumeration is tractable over F_2 only; use random_scan"
            )
        p, first = 2, 0
    else:
        first = 1
    stop = 1 << (1 << n)
    # arrays of keys: the chunk's worker builds what it checks, where it runs
    parameters = {"n": n, "p": p, "mode": "exhaustive", "samples": None}
    return _scan(theorem, parameters, None, _key_chunks(first, stop), stop - first, workers, progress)


def random_scan(
    theorem, n: int, p: int | None = None, samples: int = 100, seed: int = 0, *, workers: int = 1, progress=None
) -> VerificationReport:
    """Seeded random instances: uniform family sizes with uniform distinct
    members, or random bounded-degree polynomials for the rank-bound theorem
    (target degrees cycle through 0..(p-1)*n). Reproducible given the seed.
    """
    theorem = _coerce_theorem(theorem, p)
    _require_positive_n(n)
    if samples < 1:
        raise ParameterError(f"samples must be >= 1, got {samples}")
    gen = SplitMix64(seed)
    if theorem is TheoremId.CLP_BOUND:
        p = 2 if p is None else p  # checked before p sizes the degree cycle: p=0 would divide by zero
        # each instance's matrix side is p**n, so n is bounded before the first draw
        check_power(p, n, DEFAULT_POINT_LIMIT, "matrix side p**n", ResourceLimitError)
        draw = lambda i: random_polynomial(p, n, i % ((p - 1) * n + 1), gen)
    else:
        # |A| is drawn up to 2**n, so n is bounded before the first draw
        universe = check_power(2, n, CUBE_MATERIALIZE_LIMIT, "family universe 2**n", ResourceLimitError)
        draw = lambda i: SetFamily(n, tuple(sample_distinct(universe, 1 + gen.below(universe), gen)))
    chunks = _key_chunks(0, samples, lambda low, high: [draw(i) for i in range(low, high)])
    parameters = {"n": n, "p": p, "mode": "random", "samples": samples}
    return _scan(theorem, parameters, seed, chunks, samples, workers, progress)


# Each counterexample op once, with the family kind that is closed under it
_COUNTEREXAMPLES = {"intersect": FamilyKind.lowweight, "union": FamilyKind.highweight}


def counterexample_demo(op: str, n: int, d: int) -> CounterexampleReport:
    """The weight-bounded families on which the halved bound fails for
    intersection and union: the family is closed under the operation, so the
    star family keeps VC dimension d while the family itself has the full
    binomial-sum size.
    """
    if not isinstance(op, str) or op not in _COUNTEREXAMPLES:
        raise ParameterError(f"counterexample op must be {' or '.join(_COUNTEREXAMPLES)}, got {op!r}")
    if d < 2:
        raise ParameterError(f"the construction needs d >= 2, got {d}")
    if d > n:
        raise ParameterError(f"d = {d} exceeds n = {n}")
    family = generate_family(n, _COUNTEREXAMPLES[op](d))
    k = _instance_kernels(n)
    half_bound = _halved(k, d)
    return CounterexampleReport(
        op=op,
        n=n,
        d=d,
        family_size=len(family),
        vc_star=k.vc(k.pair(family, family, op)),
        half_bound=half_bound,
        witness=len(family) > half_bound,
    )


# Each open question stated once, as the star families of A whose VC
# dimension it bounds by d; they are built lazily, so `every` short-circuits.
_QUESTIONS = {
    "q1": lambda k, a: (k.pair(a, a, op) for op in ("intersect", "union")),
    "q2": lambda k, a: (k.pair(k.pair(a, a, "sym_diff"), a, "sym_diff"),),
}


def _stars(question: str):
    try:
        return _QUESTIONS[question]
    except (KeyError, TypeError):
        raise ParameterError(f"unknown question {question!r}; expected {' or '.join(_QUESTIONS)}") from None


def _feasible(stars, k, a, d: int):
    return k.every(k.vc(star) <= d for star in stars(k, a))


def open_question_constraint(question: str, family: SetFamily, d: int) -> bool:
    """The side condition each open-question search maximizes |A| under."""
    return _feasible(_stars(question), _instance_kernels(family.ground_size), family, d)


class _BudgetSpent(Exception):
    """The exact search has made its last allowed evaluation."""


def _exact_search(question: str, n: int, d: int, budget: int):
    """Largest feasible family by Carraghan–Pardalos branch and bound.

    Both constraints are hereditary (B ⊆ A gives B⋆B ⊆ A⋆A, and VC dimension
    only grows with the family), so the feasible families form an
    independence system: a candidate rejected at a node never returns below
    it. Each node keeps the later masks that still extend it and prunes when
    they cannot beat the best family. `best` starts as the greedy family of
    ascending masks; a one-member family is feasible at every d >= 0, so the
    first member costs no evaluation. One evaluation is one constraint test;
    returns (best, evaluations), and best is the maximum when fewer than
    `budget` evaluations were made.
    """
    evals = 0
    best = (0,)

    def feasible(members: tuple[int, ...]) -> bool:
        nonlocal evals
        if evals >= budget:
            raise _BudgetSpent
        evals += 1
        return open_question_constraint(question, SetFamily(n, members), d)

    def grow(members: tuple[int, ...], candidates) -> None:
        nonlocal best
        for i, c in enumerate(candidates):
            if len(members) + len(candidates) - i <= len(best):
                return
            child = members + (c,)
            if len(child) > len(best):
                best = child
            grow(child, [x for x in candidates[i + 1 :] if feasible(child + (x,))])

    try:
        for mask in range(1, 1 << n):
            if feasible(best + (mask,)):
                best += (mask,)
        grow((), range(1 << n))
    except _BudgetSpent:
        pass
    return best, evals


def search_open_question(
    question: str,
    n: int,
    d: int,
    mode: str = "exhaustive",
    *,
    budget: int = 5000,
) -> EvidenceTable:
    """Largest family found satisfying the question's constraint.

    Exhaustive mode enumerates every nonempty family (n <= 4); exact mode
    runs a deterministic branch and bound (n <= 8) under a budget of
    constraint evaluations, and its best size is the maximum when
    instances_examined < budget. The winning certificate is re-verified
    against the constraint before it is reported.
    """
    stars = _stars(question)
    if d < 0:
        raise ParameterError(f"d must be nonnegative, got {d}")
    _require_positive_n(n)
    if mode == "exhaustive":
        if n > EXHAUSTIVE_MAX_N:
            raise ResourceLimitError(
                f"exhaustive search over n = {n} enumerates 2**(2**{n}) families; use exact mode"
            )
        best: tuple[int, ...] = ()
        # ascending chars: keep the first char of each new largest feasible size
        for chars in _key_chunks(1, 1 << (1 << n)):
            sizes = np.where(_feasible(stars, _char_kernels(n), chars, d), popcounts(chars), 0)
            first = int(sizes.argmax())
            if sizes[first] > len(best):
                best = char_members(int(chars[first]), n)
        examined = (1 << (1 << n)) - 1
    elif mode == "exact":
        if n > SEARCH_MAX_N:
            raise ResourceLimitError(f"exact search is limited to n <= {SEARCH_MAX_N}")
        if budget < 1:
            raise ParameterError(f"budget must be >= 1, got {budget}")
        best, examined = _exact_search(question, n, d, budget)
    else:
        raise ParameterError(f"unknown mode {mode!r}; expected exhaustive or exact")

    certificate = SetFamily(n, best)
    if not open_question_constraint(question, certificate, d):
        raise AssertionError("certificate failed re-verification; this is a bug")
    row = EvidenceRow(
        question=question,
        n=n,
        d=d,
        mode=mode,
        best_size=len(best),
        binom_bound=binom_sum(n, d),
        half_bound=_halved(_instance_kernels(n), d),
        certificate=certificate.members,
        instances_examined=examined,
    )
    return EvidenceTable(note=EVIDENCE_NOTE, rows=(row,))
