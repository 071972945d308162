"""Executable theorem checks, scan harnesses, counterexample demos, and
finite-evidence searches for the two open questions.

Every theorem is checked in instance form as a bound inequality lhs <= rhs,
so no instance is vacuous. Each is stated once, in `_THEOREMS`, and each open
question once, in `_QUESTIONS`, over a kernel object on one SetFamily
(`_instance_kernels`, the reference) or on an int64 array of chars
(`_char_kernels`, n <= CHAR_MAX_N). Scans report the tightest instance seen
(largest lhs/rhs) and collect violations, which are build-failing events.
Searches produce finite evidence tables only; they are labeled as such and
never extrapolate.
"""

from __future__ import annotations

import enum
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import lru_cache, partial
from itertools import repeat
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .chars import char_members, int_degs, pairwise_chars, popcounts, vc_dims
from .clp import DEFAULT_POINT_LIMIT, verify_clp_bound
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
from .polynomials import ReducedPolynomial, monomial_count, random_polynomial
from .sampling import SplitMix64, sample_distinct
from .vc import vc_dim

EXHAUSTIVE_MAX_N = 4
HEURISTIC_MAX_N = 8
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
    the reference, and the only path for n > CHAR_MAX_N, psums and clp_bound.
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
    return 2 * k.binom(d // 2)


def _psums(k: SimpleNamespace, family: SetFamily) -> tuple[int, int]:
    e = int_deg(k_fold_sumset(embed_01(family, k.p), k.p))
    return len(family), k.p * monomial_count(k.p, k.n, e // k.p)


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


def _key_chunks(start: int, stop: int):
    """The exhaustive keys start .. stop - 1, in order, as int64 arrays of at
    most CHUNK keys: chars, or F_2 coefficient masks for clp_bound."""
    for low in range(start, stop, CHUNK):
        yield np.arange(low, min(low + CHUNK, stop), dtype=np.int64)


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
    with ExitStack() as stack:
        if processes > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=processes))
            partials = pool.map(_check, repeat(theorem), repeat(p), repeat(parameters["n"]), chunks)
        else:
            partials = (_check(theorem, p, parameters["n"], chunk) for chunk in chunks)
        for chunk_state in partials:
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
        dmax = (p - 1) * n
        instances = [random_polynomial(p, n, i % (dmax + 1), gen) for i in range(samples)]
    else:
        # |A| is drawn up to 2**n, so n is bounded before the first draw
        universe = check_power(2, n, CUBE_MATERIALIZE_LIMIT, "family universe 2**n", ResourceLimitError)
        instances = [
            SetFamily(n, tuple(sample_distinct(universe, 1 + gen.below(universe), gen)))
            for _ in range(samples)
        ]
    chunks = (instances[start : start + CHUNK] for start in range(0, samples, CHUNK))
    parameters = {"n": n, "p": p, "mode": "random", "samples": samples}
    return _scan(theorem, parameters, seed, chunks, samples, workers, progress)


def counterexample_demo(op: str, n: int, d: int) -> CounterexampleReport:
    """The weight-bounded families on which the halved bound fails for
    intersection and union: the family is closed under the operation, so the
    star family keeps VC dimension d while the family itself has the full
    binomial-sum size.
    """
    if op not in ("intersect", "union"):
        raise ParameterError(f"counterexample op must be intersect or union, got {op!r}")
    if d < 2:
        raise ParameterError(f"the construction needs d >= 2, got {d}")
    if d > n:
        raise ParameterError(f"d = {d} exceeds n = {n}")
    kind = FamilyKind.lowweight(d) if op == "intersect" else FamilyKind.highweight(d)
    family = generate_family(n, kind)
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
    """The heuristic search has made its last allowed evaluation."""


def _heuristic_search(question: str, n: int, d: int, budget: int, seed: int):
    universe = 1 << n
    gen = SplitMix64(seed)
    evals = 0
    best: tuple[int, tuple[int, ...]] | None = None

    def feasible(members: set[int]) -> bool:
        nonlocal evals
        if evals >= budget:
            raise _BudgetSpent
        evals += 1
        return open_question_constraint(question, SetFamily(n, tuple(sorted(members))), d)

    def consider(members: set[int]) -> None:
        nonlocal best
        if best is None or len(members) > best[0]:
            best = (len(members), tuple(sorted(members)))

    try:
        while True:
            current = set(sample_distinct(universe, 1 + gen.below(universe), gen))
            # repair: drop random members until the constraint holds; one member always does
            while not feasible(current):
                ordered = sorted(current)
                current.remove(ordered[gen.below(len(ordered))])
            consider(current)
            while True:
                # greedy adds; every add has equal gain, take the smallest mask
                outside = [m for m in range(universe) if m not in current]
                add = next((inc for inc in outside if feasible(current | {inc})), None)
                if add is not None:
                    current.add(add)
                    consider(current)
                    continue
                # plateau: try single swaps to open up a later add
                swap = next(
                    ((out, inc) for out in sorted(current) for inc in outside if feasible((current - {out}) | {inc})),
                    None,
                )
                if swap is None:
                    break
                current.remove(swap[0])
                current.add(swap[1])
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
    seed: int = 0,
) -> EvidenceTable:
    """Largest family found satisfying the question's constraint.

    Exhaustive mode enumerates every nonempty family (n <= 4); heuristic mode
    runs seeded steepest-ascent with restarts under an evaluation budget
    (n <= 8). The winning certificate is re-verified against the constraint
    before it is reported.
    """
    stars = _stars(question)
    if d < 0:
        raise ParameterError(f"d must be nonnegative, got {d}")
    _require_positive_n(n)
    if mode == "exhaustive":
        if n > EXHAUSTIVE_MAX_N:
            raise ResourceLimitError(
                f"exhaustive search over n = {n} enumerates 2**(2**{n}) families; use heuristic mode"
            )
        best: tuple[int, tuple[int, ...]] | None = None
        # ascending chars: keep the first char of each new largest feasible size
        for chars in _key_chunks(1, 1 << (1 << n)):
            sizes = np.where(_feasible(stars, _char_kernels(n), chars, d), popcounts(chars), 0)
            first = int(sizes.argmax())
            if sizes[first] and (best is None or sizes[first] > best[0]):
                best = (int(sizes[first]), char_members(int(chars[first]), n))
        examined = (1 << (1 << n)) - 1
    elif mode == "heuristic":
        if n > HEURISTIC_MAX_N:
            raise ResourceLimitError(f"heuristic search is limited to n <= {HEURISTIC_MAX_N}")
        if budget < 1:
            raise ParameterError(f"budget must be >= 1, got {budget}")
        best, examined = _heuristic_search(question, n, d, budget, seed)
    else:
        raise ParameterError(f"unknown mode {mode!r}; expected exhaustive or heuristic")

    if best is None:
        raise ResourceLimitError(
            "no feasible family found within budget; raise the budget or change the seed"
        )
    certificate = SetFamily(n, best[1])
    if not open_question_constraint(question, certificate, d):
        raise AssertionError("certificate failed re-verification; this is a bug")
    row = EvidenceRow(
        question=question,
        n=n,
        d=d,
        mode=mode,
        best_size=best[0],
        binom_bound=binom_sum(n, d),
        half_bound=_halved(_instance_kernels(n), d),
        certificate=certificate.members,
        instances_examined=examined,
    )
    return EvidenceTable(note=EVIDENCE_NOTE, rows=(row,))
