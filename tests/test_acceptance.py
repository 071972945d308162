"""Acceptance suite: each criterion runs at its stated scale and tolerance
(everything is exact integer arithmetic) and prints one pass/fail line."""

import time

import numpy as np

from sumsetvc import (
    SetFamily,
    counterexample_demo,
    diagonal_slice_rank_bounds,
    embed_01,
    exhaustive_scan,
    indicator_of_zero,
    int_deg,
    monomial_count,
    random_polynomial,
    random_scan,
    reconstruction_matches,
    represent_monomial,
    slice_decompose,
    sum_tensor,
    vc_dim,
)
from sumsetvc.cli import run as cli_run
from sumsetvc.families import PointSet
from sumsetvc.linalg import FieldMatrix, _rank_generic, pack_gf2_rows, rank_gf2_packed
from sumsetvc.sampling import SplitMix64

from oracles import brute_int_deg


def _check(criterion, condition, detail):
    status = "PASS" if condition else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail})")
    assert condition, f"criterion {criterion} failed: {detail}"


def all_nonempty_families(n):
    for char in range(1, 1 << (1 << n)):
        yield SetFamily(n, tuple(m for m in range(1 << n) if char >> m & 1))


def test_criterion_1_main_theorem_exhaustive_n4():
    started = time.perf_counter()
    report = exhaustive_scan("main", 4, workers=1)
    elapsed = time.perf_counter() - started
    _check(
        1,
        report.instances_checked == 65535 and report.violations == [] and elapsed < 300,
        f"instances={report.instances_checked} violations={len(report.violations)} "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_2_intdeg_le_vc_exhaustive_and_oracle():
    violations = 0
    checked = 0
    for n in (1, 2, 3, 4):
        report = exhaustive_scan("intdeg_le_vc", n)
        checked += report.instances_checked
        violations += len(report.violations)
    oracle_mismatches = 0
    for char in range(1, 256):
        pts = tuple(i for i in range(8) if char >> i & 1)
        if int_deg(PointSet(2, 3, pts)) != brute_int_deg(pts, 2, 3):
            oracle_mismatches += 1
    _check(
        2,
        violations == 0 and checked == 3 + 15 + 255 + 65535 and oracle_mismatches == 0,
        f"instances={checked} violations={violations} oracle_mismatches={oracle_mismatches}",
    )


def test_criterion_3_clp_bound_random_corpora():
    started = time.perf_counter()
    rep_f2 = random_scan("clp_bound", 8, 2, samples=1000, seed=7)
    rep_f3 = random_scan("clp_bound", 4, 3, samples=200, seed=8)
    elapsed = time.perf_counter() - started
    _check(
        3,
        rep_f2.instances_checked == 1000
        and rep_f3.instances_checked == 200
        and rep_f2.violations == []
        and rep_f3.violations == []
        and elapsed < 600,
        f"f2_violations={len(rep_f2.violations)} f3_violations={len(rep_f3.violations)} "
        f"elapsed={elapsed:.1f}s",
    )


def test_criterion_4_psums_randomized():
    report = random_scan("psums", 4, 3, samples=500, seed=1)
    _check(
        4,
        report.instances_checked == 500 and report.violations == [],
        f"instances={report.instances_checked} violations={len(report.violations)}",
    )


def test_criterion_5_counterexample_arithmetic():
    inter = counterexample_demo("intersect", 10, 2)
    union = counterexample_demo("union", 10, 2)
    expected = (56, 2, 22, True)
    got_i = (inter.family_size, inter.vc_star, inter.half_bound, inter.witness)
    got_u = (union.family_size, union.vc_star, union.half_bound, union.witness)
    _check(5, got_i == expected and got_u == expected, f"intersect={got_i} union={got_u}")


def test_criterion_6_slice_decompositions():
    gen = SplitMix64(606)
    failures = []
    checked = 0
    for p in (2, 3):
        for n in (1, 2, 3):
            for k in (2, 3):
                for d in range((p - 1) * n + 1):
                    f = random_polynomial(p, n, d, gen)
                    dec = slice_decompose(f, k)
                    bound = k * monomial_count(p, n, f.degree() // k)
                    checked += 1
                    if not reconstruction_matches(dec, f) or dec.term_count() > bound:
                        failures.append((p, n, k, d))
    _check(6, not failures, f"decompositions={checked} failures={failures}")


def test_criterion_7_diagonal_tensors():
    failures = 0
    for fam in all_nonempty_families(3):
        for p in (2, 3, 5):
            tensor = sum_tensor(indicator_of_zero(p, 3), embed_01(fam, p), p)
            report = diagonal_slice_rank_bounds(tensor)
            if not report.is_diagonal or report.lower_bound != len(fam):
                failures += 1
        ident = sum_tensor(indicator_of_zero(2, 3), embed_01(fam, 2), 2)
        if not np.array_equal(ident.values, np.eye(len(fam), dtype=np.int64)):
            failures += 1
    _check(7, failures == 0, f"families=255 primes=(2,3,5) failures={failures}")


def test_criterion_8_constructive_monomial_representation():
    failures = 0
    for fam in all_nonempty_families(3):
        bound = vc_dim(fam)
        for mono in range(8):
            poly = represent_monomial(fam, mono)
            if poly.degree() > bound:
                failures += 1
                continue
            for member in fam.members:
                digits = tuple((member >> i) & 1 for i in range(3))
                want = 1 if member & mono == mono else 0
                if poly.evaluate(digits) != want:
                    failures += 1
                    break
    _check(8, failures == 0, f"families=255 monomials=8 failures={failures}")


def test_criterion_9_determinism_and_kernels(tmp_path):
    gen = SplitMix64(909)
    kernel_mismatches = 0
    for _ in range(500):
        rows = 1 + gen.below(20)
        cols = 1 + gen.below(20)
        arr = np.array(
            [[gen.below(2) for _ in range(cols)] for _ in range(rows)], dtype=np.int64
        )
        matrix = FieldMatrix(2, arr)
        if rank_gf2_packed(pack_gf2_rows(matrix)) != _rank_generic(matrix.array, 2):
            kernel_mismatches += 1

    out = str(tmp_path / "rep.json")
    args = [
        "verify", "--theorem", "psums", "--n", "3", "--p", "3", "--mode", "random",
        "--samples", "40", "--seed", "5", "--no-progress", "--out", out,
    ]
    assert cli_run(list(args)) == 0
    first = (tmp_path / "rep.json").read_bytes()
    assert cli_run(list(args)) == 0
    byte_identical = (tmp_path / "rep.json").read_bytes() == first

    lib_identical = random_scan("main", 5, samples=100, seed=77) == random_scan(
        "main", 5, samples=100, seed=77
    )
    _check(
        9,
        kernel_mismatches == 0 and byte_identical and lib_identical,
        f"kernel_mismatches={kernel_mismatches} cli_bytes_identical={byte_identical} "
        f"library_reports_identical={lib_identical}",
    )
