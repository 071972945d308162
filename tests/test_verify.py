import json
import os
from dataclasses import asdict
from itertools import product

import numpy as np
import pytest

import sumsetvc.verify as verify_module
from sumsetvc import (
    EmptyFamilyError,
    FamilyKind,
    ParameterError,
    ResourceLimitError,
    SetFamily,
    TheoremId,
    binom_sum,
    check_instance,
    counterexample_demo,
    exhaustive_scan,
    generate_family,
    open_question_constraint,
    random_scan,
    search_open_question,
)
from sumsetvc.chars import CHAR_MAX_N, char_members

from oracles import naive_pairwise, naive_vc_dim, reference_heuristic_search

CHAR_THEOREMS = ["sauer", "main", "intdeg_main", "intdeg_le_vc", "vc_monotone"]


def all_nonempty_families(n):
    for char in range(1, 1 << (1 << n)):
        yield SetFamily(n, tuple(m for m in range(1 << n) if char >> m & 1))


# --- check_instance -----------------------------------------------------------


def test_check_instance_examples():
    powerset = generate_family(2, FamilyKind.powerset())
    assert check_instance("main", powerset)  # bound 2*binom_sum(2,1) = 6 >= 4

    singleton = SetFamily.from_masks(1, [0])
    assert check_instance("intdeg_le_vc", singleton)
    assert check_instance("psums", singleton, p=3)


def test_check_instance_validation():
    fam = SetFamily.from_masks(2, [0])
    with pytest.raises(ParameterError):
        check_instance("clp_bound", fam)
    with pytest.raises(ParameterError):
        check_instance("psums", fam)  # missing modulus
    with pytest.raises(ParameterError):
        check_instance("psums", fam, p=4)
    with pytest.raises(ParameterError):
        check_instance("not_a_theorem", fam)
    with pytest.raises(EmptyFamilyError):
        check_instance("sauer", SetFamily(2, ()))


def test_check_instance_accepts_enum():
    fam = SetFamily.from_masks(2, [0, 1])
    assert check_instance(TheoremId.SAUER, fam)


# --- exhaustive_scan -------------------------------------------------------------


def test_exhaustive_scan_examples():
    rep = exhaustive_scan("intdeg_le_vc", 3)
    assert rep.instances_checked == 255
    assert rep.violations == []
    assert rep.ok

    rep = exhaustive_scan("sauer", 2)
    assert rep.instances_checked == 15
    assert rep.violations == []

    rep = exhaustive_scan("main", 3)
    assert rep.instances_checked == 255
    assert rep.violations == []


def test_exhaustive_scan_all_theorems_small_n():
    for theorem in ("sauer", "main", "intdeg_main", "intdeg_le_vc", "vc_monotone"):
        for n in (1, 2):
            rep = exhaustive_scan(theorem, n)
            assert rep.ok and rep.instances_checked == (1 << (1 << n)) - 1
    for p in (2, 3, 5):
        rep = exhaustive_scan("psums", 2, p)
        assert rep.ok and rep.instances_checked == 15


def test_exhaustive_scan_clp_bound_enumerates_polynomials():
    rep = exhaustive_scan("clp_bound", 2)
    assert rep.instances_checked == 16  # all F_2 polynomials in 2 variables
    assert rep.violations == []
    with pytest.raises(ResourceLimitError):
        exhaustive_scan("clp_bound", 2, p=3)


def test_exhaustive_scan_resource_guard():
    with pytest.raises(ResourceLimitError) as exc:
        exhaustive_scan("main", 5)
    assert "random_scan" in str(exc.value)


def test_exhaustive_scan_reports_extremes():
    rep = exhaustive_scan("sauer", 2)
    assert rep.extremes is not None
    assert rep.extremes["lhs"] <= rep.extremes["rhs"]
    assert 0 < rep.extremes["ratio"] <= 1.0


def test_exhaustive_scan_deterministic_and_worker_invariant(monkeypatch):
    seq = exhaustive_scan("main", 3)
    again = exhaustive_scan("main", 3)
    assert seq == again
    monkeypatch.setattr(verify_module, "CHUNK", 64)  # 4 chunks, so two workers both get one
    par = exhaustive_scan("main", 3, workers=2)
    assert par == seq


def test_intdeg_main_implies_main_exhaustive():
    # the polynomial-method bound is at least as strong as the VC bound
    for n in (1, 2, 3):
        for fam in all_nonempty_families(n):
            if check_instance("intdeg_main", fam):
                assert check_instance("main", fam)


def recorded_stream(monkeypatch, scan):
    """The (lhs, rhs) of every instance the scan records, in scan order,
    taken by wrapping _ScanState.record as the benchmark does."""
    stream = []
    record = verify_module._ScanState.record

    def recording(state, instance, lhs, rhs):
        stream.append((lhs, rhs))
        return record(state, instance, lhs, rhs)

    with monkeypatch.context() as m:
        m.setattr(verify_module._ScanState, "record", recording)
        scan()
    return stream


def instance_inequality(theorem, family, p=None):
    """(lhs, rhs) of the theorem's one statement, over the per-instance kernels."""
    kernels = verify_module._instance_kernels(family.ground_size, p)
    return verify_module._THEOREMS[TheoremId(theorem)].inequality(kernels, family)


def test_char_theorems_are_the_family_theorems_without_a_modulus():
    table = verify_module._THEOREMS
    assert sorted(t.value for t, entry in table.items() if entry.on_chars) == sorted(CHAR_THEOREMS)
    assert [t for t, entry in table.items() if entry.needs_p] == [TheoremId.PSUMS]


def test_every_theorem_has_exactly_one_table_entry():
    assert len(verify_module._THEOREMS) == len(TheoremId)
    assert set(verify_module._THEOREMS) == set(TheoremId)


def test_cli_choices_are_the_table_keys():
    from sumsetvc.cli import build_parser

    commands = next(a for a in build_parser()._actions if a.dest == "command").choices
    choices = {
        (command, action.dest): action.choices
        for command in ("verify", "search")
        for action in commands[command]._actions
    }
    assert choices["verify", "theorem"] == [t.value for t in verify_module._THEOREMS]
    assert choices["search", "question"] == list(verify_module._QUESTIONS)


def test_unknown_question_names_the_table():
    for call in (
        lambda: search_open_question("q3", 3, 2),
        lambda: open_question_constraint("q3", SetFamily(2, (0,)), 1),
    ):
        with pytest.raises(ParameterError) as exc:
            call()
        assert str(exc.value) == "unknown question 'q3'; expected q1 or q2"


def test_q1_constraint_short_circuits_on_the_first_star(monkeypatch):
    # the powerset of 2^[3] is its own intersection star, VC dimension 3 > 0,
    # so the union star is never built
    ops = []
    pairwise = verify_module.pairwise_family
    monkeypatch.setattr(verify_module, "pairwise_family", lambda a, b, op: ops.append(op) or pairwise(a, b, op))
    assert not open_question_constraint("q1", SetFamily(3, tuple(range(8))), 0)
    assert ops == ["intersect"]
    assert open_question_constraint("q1", SetFamily(3, (0,)), 0)
    assert ops == ["intersect", "intersect", "union"]


def test_psums_without_a_modulus_fails_before_anything_is_drawn(monkeypatch):
    def never(*args):
        raise AssertionError("drew or enumerated an instance")

    monkeypatch.setattr(verify_module, "sample_distinct", never)
    monkeypatch.setattr(verify_module, "_key_chunks", never)
    for scan in (lambda: random_scan("psums", 5, samples=10), lambda: exhaustive_scan("psums", 3)):
        with pytest.raises(ParameterError) as exc:
            scan()
        assert str(exc.value) == "psums requires a prime modulus p"
    with pytest.raises(ParameterError, match="modulus must be prime, got 6"):
        random_scan("sauer", 5, p=6, samples=10)


@pytest.mark.parametrize("theorem", CHAR_THEOREMS)
def test_char_scan_records_the_per_instance_stream(monkeypatch, theorem):
    for n in (1, 2, 3):
        stream = recorded_stream(monkeypatch, lambda: exhaustive_scan(theorem, n))
        want = [instance_inequality(theorem, f) for f in all_nonempty_families(n)]
        assert stream == want, n
        assert all(type(x) is int for pair in stream for x in pair)


def per_instance_scan(monkeypatch, theorem, n):
    """The exhaustive scan with the theorem's table entry marked per instance."""
    entry = verify_module._THEOREMS[TheoremId(theorem)]
    with monkeypatch.context() as m:
        m.setitem(verify_module._THEOREMS, TheoremId(theorem), entry._replace(on_chars=False))
        return exhaustive_scan(theorem, n)


@pytest.mark.parametrize("theorem", CHAR_THEOREMS)
def test_char_scan_reports_are_worker_invariant_and_match_per_instance(monkeypatch, theorem):
    expected = per_instance_scan(monkeypatch, theorem, 3)
    monkeypatch.setattr(verify_module, "CHUNK", 64)  # 4 chunks, so the pool runs
    one = exhaustive_scan(theorem, 3)
    two = exhaustive_scan(theorem, 3, workers=2)
    assert json.dumps(asdict(one)) == json.dumps(asdict(two)) == json.dumps(asdict(expected))


def test_char_scan_reports_a_planted_violation_as_the_per_instance_path_does(monkeypatch):
    powerset = (1 << 8) - 1
    vc_dims, vc_dim = verify_module.vc_dims, verify_module.vc_dim
    monkeypatch.setattr(verify_module, "vc_dims", lambda chars, n: np.where(chars == powerset, 0, vc_dims(chars, n)))
    monkeypatch.setattr(verify_module, "vc_dim", lambda f: 0 if len(f) == 8 else vc_dim(f))
    expected = per_instance_scan(monkeypatch, "sauer", 3)
    planted = {"instance": {"kind": "family", "n": 3, "members": list(range(8))}, "lhs": 8, "rhs": 1}
    assert expected.violations == [planted]
    assert expected.extremes == dict(planted, ratio=8.0)
    monkeypatch.setattr(verify_module, "CHUNK", 64)
    for workers in (1, 2):
        assert exhaustive_scan("sauer", 3, workers=workers) == expected


@pytest.mark.parametrize("n", [4, CHAR_MAX_N])
def test_check_records_a_shuffled_strided_char_array_in_its_order(monkeypatch, n):
    # chunks need not be ascending runs of keys: any int64 array of chars is checked in place
    rng = np.random.default_rng(n)
    keys = rng.permutation(rng.integers(1, 1 << (1 << n), size=400, dtype=np.int64))
    chars = keys[::3]
    assert not chars.flags.c_contiguous
    for theorem in map(TheoremId, CHAR_THEOREMS):
        recorded = []
        with monkeypatch.context() as m:
            m.setattr(verify_module._ScanState, "record", lambda state, *args: recorded.append(args))
            verify_module._check(theorem, None, n, chars)
        family = verify_module._family_from_char
        want = [(c, *instance_inequality(theorem, family(c, n))) for c in chars.tolist()]
        assert recorded == want, theorem
        assert all(type(x) is int for entry in recorded for x in entry)
    # the open questions' char and per-family constraints agree on the same array
    families = [verify_module._family_from_char(c, n) for c in chars.tolist()]
    for question, stars in verify_module._QUESTIONS.items():
        for d in range(n + 1):
            feasible = verify_module._feasible(stars, verify_module._char_kernels(n), chars, d)
            assert feasible.tolist() == [open_question_constraint(question, f, d) for f in families], (question, d)


def test_scan_builds_instance_dicts_only_for_kept_instances(monkeypatch):
    described = []
    char_dict = verify_module._char_dict

    def counting(char, n):
        described.append(char)
        return char_dict(char, n)

    monkeypatch.setattr(verify_module, "_char_dict", counting)
    report = exhaustive_scan("sauer", 3)
    # no family breaks Sauer's bound and none beats the ratio 1 of the first
    # family {∅}, so that is the only instance the report keeps
    assert described == [1]
    assert report.extremes["instance"] == {"kind": "family", "n": 3, "members": [0]}


# --- random_scan -------------------------------------------------------------------


def test_random_scan_reproducible():
    a = random_scan("main", 6, samples=50, seed=42)
    b = random_scan("main", 6, samples=50, seed=42)
    assert a == b
    assert a.instances_checked == 50
    assert a.ok
    c = random_scan("main", 6, samples=50, seed=43)
    assert c != a


def test_random_scan_psums():
    rep = random_scan("psums", 4, 3, samples=60, seed=1)
    assert rep.instances_checked == 60
    assert rep.violations == []
    assert rep.parameters == {"n": 4, "p": 3, "mode": "random", "samples": 60}
    assert rep.seed == 1


def test_random_scan_clp_bound():
    rep = random_scan("clp_bound", 5, 2, samples=40, seed=7)
    assert rep.instances_checked == 40
    assert rep.violations == []
    rep3 = random_scan("clp_bound", 3, 3, samples=20, seed=7)
    assert rep3.ok


def test_random_scan_validation():
    with pytest.raises(ParameterError):
        random_scan("main", 4, samples=0, seed=1)
    with pytest.raises(ParameterError):
        random_scan("psums", 3, 6, samples=5, seed=1)


def test_random_scan_bounds_n_for_family_theorems(monkeypatch):
    # |A| is drawn up to 2**n: past the cube guard nothing is drawn
    for theorem, p in [("sauer", None), ("main", None), ("psums", 3)]:
        with pytest.raises(ResourceLimitError, match=r"2\*\*40 exceeds the guard"):
            random_scan(theorem, 40, p, samples=1, seed=0)
    monkeypatch.setattr(verify_module, "CUBE_MATERIALIZE_LIMIT", 8)
    assert random_scan("sauer", 3, samples=5, seed=1).instances_checked == 5
    with pytest.raises(ResourceLimitError):
        random_scan("sauer", 4, samples=5, seed=1)


def test_random_scan_bounds_n_for_clp_bound():
    # each matrix side is p**n: past the point guard no polynomial is drawn
    for n, p in [(13, 2), (30, 2), (8, 3)]:
        with pytest.raises(ResourceLimitError, match=r"matrix side p\*\*n = .* exceeds the guard 4096"):
            random_scan("clp_bound", n, p, samples=20, seed=0)
    # the largest admitted sides still scan
    for n, p in [(12, 2), (7, 3)]:
        assert random_scan("clp_bound", n, p, samples=1, seed=0).instances_checked == 1


@pytest.mark.parametrize("workers", [0, -1])
def test_scans_reject_fewer_than_one_worker(workers):
    with pytest.raises(ParameterError):
        exhaustive_scan("sauer", 2, workers=workers)
    with pytest.raises(ParameterError):
        random_scan("sauer", 3, samples=5, seed=1, workers=workers)
    with pytest.raises(ParameterError):
        random_scan("clp_bound", 2, samples=5, seed=1, workers=workers)


def test_scans_reject_a_modulus_that_is_not_prime():
    with pytest.raises(ParameterError, match="modulus must be prime, got 4"):
        exhaustive_scan("main", 3, p=4)
    with pytest.raises(ParameterError, match="modulus must be prime, got 6"):
        random_scan("sauer", 3, p=6, samples=2)
    with pytest.raises(ParameterError, match="modulus must be prime, got 0"):
        random_scan("clp_bound", 1, p=0, samples=2)


def test_random_scan_worker_invariant(monkeypatch):
    seq = random_scan("sauer", 5, samples=64, seed=9)
    monkeypatch.setattr(verify_module, "CHUNK", 16)
    par = random_scan("sauer", 5, samples=64, seed=9, workers=2)
    assert seq == par


def test_pool_size_is_capped_by_chunks_and_cpus(monkeypatch):
    sizes = []

    class InlinePool:
        """Stands in for ProcessPoolExecutor: records its size, starts no process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(verify_module, "ProcessPoolExecutor", InlinePool)
    expected = exhaustive_scan("sauer", 2)
    # one chunk: no pool at all, however many workers are asked for
    assert exhaustive_scan("sauer", 2, workers=100000) == expected
    assert random_scan("sauer", 3, samples=5, seed=1, workers=100000) == random_scan(
        "sauer", 3, samples=5, seed=1
    )
    assert sizes == []
    monkeypatch.setattr(verify_module, "CHUNK", 4)  # 15 families in 4 chunks
    for cpus, workers in ((64, 100000), (3, 100000), (64, 2), (None, 100000)):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert exhaustive_scan("sauer", 2, workers=workers) == expected
    assert sizes == [4, 3, 2]


# --- counterexample_demo --------------------------------------------------------------


def test_counterexample_demo_examples():
    rep = counterexample_demo("intersect", 10, 2)
    assert (rep.family_size, rep.vc_star, rep.half_bound, rep.witness) == (56, 2, 22, True)

    rep_u = counterexample_demo("union", 10, 2)
    assert (rep_u.family_size, rep_u.vc_star, rep_u.half_bound, rep_u.witness) == (56, 2, 22, True)

    rep4 = counterexample_demo("intersect", 4, 2)
    assert (rep4.family_size, rep4.half_bound, rep4.witness) == (11, 10, True)


def test_counterexample_demo_star_dimension_equals_d():
    for op in ("intersect", "union"):
        for n, d in ((4, 2), (5, 3), (7, 2), (8, 3)):
            rep = counterexample_demo(op, n, d)
            assert rep.vc_star == d
            assert rep.family_size == binom_sum(n, d)


def test_counterexample_witness_holds_from_n4_onward():
    for n in range(4, 21):
        assert binom_sum(n, 2) > 2 * binom_sum(n, 1)
        rep = counterexample_demo("intersect", n, 2) if n <= 12 else None
        if rep is not None:
            assert rep.witness


def test_counterexample_demo_validation():
    with pytest.raises(ParameterError):
        counterexample_demo("intersect", 5, 1)
    with pytest.raises(ParameterError):
        counterexample_demo("intersect", 3, 4)
    with pytest.raises(ParameterError):
        counterexample_demo("sym_diff", 5, 2)


# --- search_open_question --------------------------------------------------------------


def test_search_examples():
    tab = search_open_question("q1", 2, 2, "exhaustive")
    assert tab.rows[0].best_size == 4  # the whole powerset is feasible at d = n

    tab = search_open_question("q2", 3, 3, "exhaustive")
    assert tab.rows[0].best_size == 8


def test_search_q1_n4_d2_regression():
    # value produced by the exhaustive run itself on first computation;
    # pinned here as a regression fixture
    tab = search_open_question("q1", 4, 2, "exhaustive")
    row = tab.rows[0]
    assert row.best_size == 9
    assert row.certificate == (0, 1, 2, 3, 6, 7, 9, 11, 15)
    assert row.binom_bound == binom_sum(4, 2)
    assert row.half_bound == 2 * binom_sum(4, 1)
    assert row.instances_examined == 65535


def test_search_certificates_reverify_independently():
    # independent re-verification through the naive VC oracle
    for question, n, d in (("q1", 3, 2), ("q2", 3, 2)):
        tab = search_open_question(question, n, d, "exhaustive")
        members = tab.rows[0].certificate
        if question == "q1":
            inter = naive_pairwise(members, members, "intersect")
            union = naive_pairwise(members, members, "union")
            assert naive_vc_dim(inter, n) <= d
            assert naive_vc_dim(union, n) <= d
        else:
            double = naive_pairwise(members, members, "sym_diff")
            triple = naive_pairwise(double, members, "sym_diff")
            assert naive_vc_dim(triple, n) <= d


def ascending_search(question, n, d):
    """The first char, in ascending order, of the largest feasible size."""
    best = None
    for char in range(1, 1 << (1 << n)):
        family = SetFamily(n, char_members(char, n))
        if (best is None or len(family) > best[0]) and open_question_constraint(question, family, d):
            best = (len(family), family.members)
    return best


@pytest.mark.parametrize("question", ["q1", "q2"])
def test_exhaustive_search_matches_the_ascending_loop(question, monkeypatch):
    monkeypatch.setattr(verify_module, "CHUNK", 7)  # the answer may sit in any chunk
    for n in (1, 2, 3):
        for d in range(n + 1):
            row = search_open_question(question, n, d, "exhaustive").rows[0]
            assert (row.best_size, row.certificate) == ascending_search(question, n, d), (n, d)
            assert row.instances_examined == (1 << (1 << n)) - 1


def test_char_scans_and_search_run_without_numpy_bitwise_count(monkeypatch):
    # numpy 1.x, which the package supports, has no np.bitwise_count
    scans = {t: exhaustive_scan(t, 2) for t in CHAR_THEOREMS}
    rows = {q: search_open_question(q, 2, 1).rows for q in ("q1", "q2")}
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    assert {t: exhaustive_scan(t, 2) for t in CHAR_THEOREMS} == scans
    assert {q: search_open_question(q, 2, 1).rows for q in ("q1", "q2")} == rows


def test_search_heuristic_mode():
    tab = search_open_question("q1", 5, 2, "heuristic", budget=400, seed=11)
    row = tab.rows[0]
    assert row.mode == "heuristic"
    assert open_question_constraint("q1", SetFamily(5, row.certificate), 2)
    again = search_open_question("q1", 5, 2, "heuristic", budget=400, seed=11)
    assert again.rows == tab.rows
    # exhaustive at the same parameters can only do better or equal
    small = search_open_question("q1", 3, 2, "heuristic", budget=500, seed=1)
    full = search_open_question("q1", 3, 2, "exhaustive")
    assert small.rows[0].best_size <= full.rows[0].best_size


@pytest.mark.parametrize("question", ["q1", "q2"])
def test_heuristic_search_spends_its_budget_as_the_reference_does(question):
    for n, budget, seed in product(range(1, 6), (1, 2, 7, 50, 400), (0, 1, 5)):
        for d in range(n + 1):
            got = verify_module._heuristic_search(question, n, d, budget, seed)
            assert got == reference_heuristic_search(question, n, d, budget, seed), (n, d, budget, seed)
            assert got[1] == budget


def test_search_note_labels_finite_evidence():
    tab = search_open_question("q2", 2, 1, "exhaustive")
    assert "Finite-search evidence" in tab.note


def test_search_validation():
    with pytest.raises(ParameterError):
        search_open_question("q3", 3, 2)
    with pytest.raises(ResourceLimitError):
        search_open_question("q1", 5, 2, "exhaustive")
    with pytest.raises(ResourceLimitError):
        search_open_question("q1", 9, 2, "heuristic")
    with pytest.raises(ParameterError):
        search_open_question("q1", 3, 2, "annealing")
    for mode in ("exhaustive", "heuristic"):
        with pytest.raises(ParameterError, match="n must be >= 1, got -1"):
            search_open_question("q1", -1, 1, mode)
