"""Exhaustive sweeps at the largest desk scale: every theorem over every
nonempty family of 2^[4] (the two scans already exercised by the acceptance
suite are left there), the polynomial rank bound over every F_2 polynomial
in four variables, and the p-fold sum theorem over every family of 2^[3]
for p in {2, 3, 5}. Any violation anywhere is a build-failing event. The
char-array scans are also checked result by result against the per-instance
kernels over all of 2^[4]."""

import pytest

from sumsetvc import SetFamily, check_instance, exhaustive_scan, pairwise_family

from test_verify import instance_inequality, recorded_stream


def all_nonempty_families(n):
    for char in range(1, 1 << (1 << n)):
        yield SetFamily(n, tuple(m for m in range(1 << n) if char >> m & 1))


def test_exhaustive_sweep_remaining_theorems_n4():
    for theorem in ("sauer", "intdeg_main", "vc_monotone"):
        report = exhaustive_scan(theorem, 4)
        assert report.instances_checked == 65535
        assert report.violations == [], theorem


def test_exhaustive_sweep_clp_bound_n4():
    report = exhaustive_scan("clp_bound", 4)
    assert report.instances_checked == 65536
    assert report.violations == []


def test_exhaustive_sweep_psums_n3_all_primes():
    for p in (2, 3, 5):
        report = exhaustive_scan("psums", 3, p)
        assert report.instances_checked == 255
        assert report.violations == [], p


def test_family_closure_properties_n4():
    for fam in all_nonempty_families(4):
        members = set(fam.members)
        assert 0 in pairwise_family(fam, fam, "sym_diff").members
        assert members <= set(pairwise_family(fam, fam, "intersect").members)
        assert members <= set(pairwise_family(fam, fam, "union").members)


def test_intdeg_main_implies_main_n4():
    for fam in all_nonempty_families(4):
        if check_instance("intdeg_main", fam):
            assert check_instance("main", fam)


@pytest.mark.parametrize("theorem", ["vc_monotone", "intdeg_le_vc"])
def test_char_scan_stream_equals_per_instance_n4(monkeypatch, theorem):
    stream = recorded_stream(monkeypatch, lambda: exhaustive_scan(theorem, 4))
    assert len(stream) == 65535
    for fam, got in zip(all_nonempty_families(4), stream):
        assert got == instance_inequality(theorem, fam), fam.members
