import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumsetvc import (
    DimensionMismatchError,
    EmptyFamilyError,
    FamilyFormatError,
    FamilyKind,
    ParameterError,
    PointSet,
    ResourceLimitError,
    SetFamily,
    binom_sum,
    embed_01,
    family_from_points,
    format_family_text,
    generate_family,
    k_fold_sumset,
    pairwise_family,
    parse_family_text,
)
from sumsetvc import families, polynomials
from sumsetvc.families import (
    add_points,
    check_modulus,
    check_power,
    decode_point,
    encode_point,
    is_prime,
    parse_digits,
)

from oracles import naive_k_fold, naive_pairwise


def all_nonempty_families(n):
    for char in range(1, 1 << (1 << n)):
        yield SetFamily(n, tuple(m for m in range(1 << n) if char >> m & 1))


# --- binom_sum ---------------------------------------------------------------


def test_binom_sum_examples():
    assert binom_sum(4, 2) == 11
    assert binom_sum(10, 2) == 56
    for n in range(12):
        assert binom_sum(n, 0) == 1


def test_binom_sum_clamps_large_d():
    assert binom_sum(5, 17) == 32
    assert binom_sum(0, 3) == 1


def test_binom_sum_rejects_negative():
    with pytest.raises(ParameterError):
        binom_sum(-1, 2)
    with pytest.raises(ParameterError):
        binom_sum(3, -1)


# --- SetFamily / PointSet construction ---------------------------------------


def test_set_family_canonicalization():
    fam = SetFamily.from_masks(3, [5, 1, 5, 0])
    assert fam.members == (0, 1, 5)
    with pytest.raises(ParameterError):
        SetFamily(2, (1, 1))
    with pytest.raises(ParameterError):
        SetFamily(2, (4,))
    order = re.escape("members must be strictly increasing (canonical order)")
    for members in ((1, 1), (2, 1), (-1,), (0, -3)):  # duplicate, descending, negative
        with pytest.raises(ParameterError, match=f"^{order}$"):
            SetFamily(2, members)
    with pytest.raises(ParameterError, match="^member 4 out of range for ground size 2$"):
        SetFamily(2, (0, 4))
    # the kernels hash and re-read the members: a list or an iterator is refused
    for members in ([0, 3], iter((0, 3))):
        with pytest.raises(ParameterError, match="^members must be a tuple, got .*SetFamily.from_masks"):
            SetFamily(2, members)


def test_point_set_validation():
    with pytest.raises(ParameterError):
        PointSet(4, 2, (0,))  # composite modulus
    with pytest.raises(ParameterError):
        PointSet(3, 2, (9,))  # out of range
    order = re.escape("points must be strictly increasing (canonical order)")
    for points in ((4, 4), (4, 0), (-1,), (0, -3)):  # duplicate, descending, negative
        with pytest.raises(ParameterError, match=f"^{order}$"):
            PointSet(3, 2, points)
    with pytest.raises(ParameterError, match=r"^point 9 out of range for F_3\^2$"):
        PointSet(3, 2, (0, 9))
    with pytest.raises(ParameterError):
        PointSet(2, 50, (0,))  # encoding guard
    ps = PointSet.from_points(3, 2, [4, 0, 4])
    assert ps.points == (0, 4)
    for points in ([0, 3], iter((0, 3))):
        with pytest.raises(ParameterError, match="^points must be a tuple, got .*PointSet.from_points"):
            PointSet(2, 2, points)


def test_repeated_modulus_check_is_a_cache_hit():
    check_modulus(3037000493)
    hits = is_prime.cache_info().hits
    check_modulus(3037000493)
    assert is_prime.cache_info().hits == hits + 1


def test_check_power_agrees_with_direct_comparison():
    cases = [(b, e, lim) for b in range(6) for e in range(8) for lim in range(-2, 130)]
    for b in (2, 3, 7, 255, 256, 257):
        for e in range(12):
            cases += [(b, e, b**e + delta) for delta in (-1, 0, 1)]
    for base, exp, limit in cases:
        if base**exp <= limit:
            assert check_power(base, exp, limit, "x", ParameterError) == base**exp
        else:
            with pytest.raises(ParameterError):
                check_power(base, exp, limit, "x", ParameterError)


def test_check_power_rejects_a_huge_exponent_by_name():
    # 3**(10**9) has about 1.6e9 bits: the guard must reject it without building it
    with pytest.raises(
        ResourceLimitError, match=r"^cube points p\*\*n = 3\*\*1000000000 exceeds the guard 64$"
    ):
        check_power(3, 10**9, 64, "cube points p**n", ResourceLimitError)


def test_check_power_passes_base_0_and_1_at_any_exponent():
    assert check_power(0, 10**9, 0, "x", ParameterError) == 0
    assert check_power(1, 10**9, 1, "x", ParameterError) == 1
    with pytest.raises(ParameterError):
        check_power(1, 10**9, 0, "x", ParameterError)


def test_empty_family_is_constructible_but_rejected():
    fam = SetFamily(2, ())
    with pytest.raises(EmptyFamilyError):
        pairwise_family(fam, fam, "sym_diff")
    ps = PointSet(2, 2, ())
    with pytest.raises(EmptyFamilyError):
        k_fold_sumset(ps, 2)


# --- pairwise_family ----------------------------------------------------------


def test_pairwise_examples():
    single = SetFamily.from_masks(1, [0])
    assert pairwise_family(single, single, "sym_diff").members == (0,)

    two = SetFamily.from_masks(2, [1, 2])
    assert pairwise_family(two, two, "sym_diff").members == (0, 3)

    three = SetFamily.from_masks(2, [0, 1, 2])
    # enumerating all 9 pairs gives the full powerset of [2]
    assert pairwise_family(three, three, "sym_diff").members == (0, 1, 2, 3)


def test_pairwise_matches_set_oracle():
    fam_a = SetFamily.from_masks(3, [0, 3, 5])
    fam_b = SetFamily.from_masks(3, [1, 6])
    for op in ("sym_diff", "intersect", "union"):
        assert pairwise_family(fam_a, fam_b, op).members == naive_pairwise(
            fam_a.members, fam_b.members, op
        )


def test_pairwise_errors():
    fam = SetFamily.from_masks(2, [0])
    other = SetFamily.from_masks(3, [0])
    with pytest.raises(DimensionMismatchError):
        pairwise_family(fam, other, "sym_diff")
    with pytest.raises(ParameterError):
        pairwise_family(fam, fam, "xor")
    # 8193**2 pairs pass CUBE_MATERIALIZE_LIMIT and are refused before any is built
    big = SetFamily(14, tuple(range(8193)))
    with pytest.raises(ResourceLimitError, match=r"pairs \|A\|\*\|B\| = 8193\*8193 exceeds the guard 67108864"):
        pairwise_family(big, big, "union")
    one = SetFamily(14, (0,))
    assert pairwise_family(big, one, "union").members == big.members


def test_sym_diff_contains_empty_set_and_idempotent_ops_contain_family():
    for n in (1, 2, 3):
        for fam in all_nonempty_families(n):
            sym = pairwise_family(fam, fam, "sym_diff")
            assert 0 in sym.members
            for op in ("intersect", "union"):
                star = pairwise_family(fam, fam, op)
                assert set(fam.members) <= set(star.members)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=8),
            st.sets(st.integers(0, (1 << n) - 1), min_size=1, max_size=8),
        )
    ),
    st.sampled_from(["sym_diff", "intersect", "union"]),
)
def test_pairwise_symmetric_in_arguments(nab, op):
    n, masks_a, masks_b = nab
    fam_a = SetFamily.from_masks(n, masks_a)
    fam_b = SetFamily.from_masks(n, masks_b)
    assert pairwise_family(fam_a, fam_b, op) == pairwise_family(fam_b, fam_a, op)


# --- k_fold_sumset -------------------------------------------------------------


def test_k_fold_examples():
    origin = PointSet.from_points(5, 3, [0])
    for k in (1, 2, 4):
        assert k_fold_sumset(origin, k).points == (0,)

    f3 = PointSet.from_points(3, 1, [0, 1])
    assert k_fold_sumset(f3, 3).points == (0, 1, 2)

    diag = PointSet.from_points(2, 2, [0, 3])
    assert k_fold_sumset(diag, 2).points == (0, 3)


def test_k_fold_matches_enumeration_oracle():
    pts = PointSet.from_points(3, 2, [1, 3, 4])
    for k in (1, 2, 3):
        assert k_fold_sumset(pts, k).points == naive_k_fold(pts.points, 3, 2, k)
    pts2 = PointSet.from_points(5, 2, [0, 6, 7])
    assert k_fold_sumset(pts2, 3).points == naive_k_fold(pts2.points, 5, 2, 3)


def test_k_fold_in_small_chunks_matches_enumeration_oracle(monkeypatch):
    monkeypatch.setattr(families, "SUMSET_CHUNK", 7)
    pts = PointSet.from_points(3, 3, [1, 3, 4, 11, 20, 26])
    for k in (2, 3):
        assert k_fold_sumset(pts, k).points == naive_k_fold(pts.points, 3, 3, k)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_k_fold_matches_enumeration_oracle_at_large_primes(data):
    p = data.draw(st.sampled_from((65537, 2147483647, 3037000493)), label="p")
    n = data.draw(st.integers(1, 2), label="n")
    k = data.draw(st.integers(2, 3), label="k")
    digit = st.one_of(st.integers(p - 3, p - 1), st.integers(0, p - 1))  # sums reach 2(p-1)
    vectors = data.draw(
        st.lists(st.tuples(*[digit] * n), min_size=1, max_size=5, unique=True), label="points"
    )
    encoded = [encode_point(v, p) for v in vectors]
    if p**n > families.ENCODING_LIMIT:
        # the encoding guard keeps these cubes out of PointSet, but their
        # points come close to 2**63 and the sum kernel must stay exact there
        with pytest.raises(ParameterError):
            PointSet.from_points(p, n, encoded)
        arr = np.array(encoded, dtype=np.int64)
        sums = add_points(arr[:, None], arr[None, :], p, n)
        for i, x in enumerate(vectors):
            for j, y in enumerate(vectors):
                assert sums[i, j] == encode_point([(a + b) % p for a, b in zip(x, y)], p)
        return
    pts = PointSet.from_points(p, n, encoded)
    assert k_fold_sumset(pts, k).points == naive_k_fold(pts.points, p, n, k)


def test_add_points_broadcasts_over_arrays():
    for p, n in ((2, 3), (3, 2), (5, 2)):
        idx = np.arange(p**n, dtype=np.int64)
        table = add_points(idx[:, None], idx[None, :], p, n)
        for x in range(p**n):
            for y in range(p**n):
                digits = [(a + b) % p for a, b in zip(decode_point(x, p, n), decode_point(y, p, n))]
                assert table[x, y] == encode_point(digits, p) == add_points(x, y, p, n)


def test_k_fold_parameter_errors():
    pts = PointSet.from_points(2, 1, [0])
    with pytest.raises(ParameterError):
        k_fold_sumset(pts, 0)


def test_two_fold_sumset_agrees_with_sym_diff_exhaustively():
    for fam in all_nonempty_families(3):
        via_points = k_fold_sumset(embed_01(fam, 2), 2).points
        via_family = pairwise_family(fam, fam, "sym_diff").members
        assert via_points == via_family


# --- embed_01 -------------------------------------------------------------------


def test_embed_examples():
    assert embed_01(SetFamily.from_masks(3, [0]), 5).points == (0,)
    assert embed_01(SetFamily.from_masks(2, [1, 2]), 3).points == (1, 3)


def test_embed_round_trip_p2():
    fam = SetFamily.from_masks(4, [0, 3, 9, 14])
    assert family_from_points(embed_01(fam, 2)).members == fam.members


def test_embed_rejects_composite():
    fam = SetFamily.from_masks(2, [0])
    with pytest.raises(ParameterError):
        embed_01(fam, 4)


def test_embed_preserves_size():
    fam = generate_family(5, FamilyKind.random(12, seed=3))
    assert len(embed_01(fam, 7)) == len(fam)


# --- generate_family -------------------------------------------------------------


def test_generate_examples():
    assert generate_family(2, FamilyKind.powerset()).members == (0, 1, 2, 3)
    assert len(generate_family(4, FamilyKind.lowweight(2))) == 11
    assert len(generate_family(4, FamilyKind.highweight(2))) == 11


def test_lowweight_size_matches_binom_sum():
    for n in range(1, 11):
        for d in range(n + 1):
            assert len(generate_family(n, FamilyKind.lowweight(d))) == binom_sum(n, d)


def test_highweight_is_complement_of_lowweight():
    low = generate_family(5, FamilyKind.lowweight(2))
    high = generate_family(5, FamilyKind.highweight(2))
    full = (1 << 5) - 1
    assert set(high.members) == {full ^ m for m in low.members}


def test_random_family_reproducible_and_bounded():
    fam1 = generate_family(6, FamilyKind.random(20, seed=42))
    fam2 = generate_family(6, FamilyKind.random(20, seed=42))
    assert fam1 == fam2
    assert len(fam1) == 20
    other = generate_family(6, FamilyKind.random(20, seed=43))
    assert other != fam1
    with pytest.raises(ParameterError):
        generate_family(2, FamilyKind.random(5, seed=0))


def test_generate_family_refuses_more_members_than_the_guard(monkeypatch):
    assert polynomials.CUBE_MATERIALIZE_LIMIT == families.CUBE_MATERIALIZE_LIMIT
    huge = [
        (27, FamilyKind.powerset()),
        (10**6, FamilyKind.lowweight(10**6)),
        (10**6, FamilyKind.highweight(2)),
        (30, FamilyKind.random(families.CUBE_MATERIALIZE_LIMIT + 1, seed=0)),
    ]
    for n, kind in huge:
        with pytest.raises(ResourceLimitError, match="exceed"):
            generate_family(n, kind)
    # at the guard a family is built, one member past it is refused
    monkeypatch.setattr(families, "CUBE_MATERIALIZE_LIMIT", 11)
    assert len(generate_family(4, FamilyKind.lowweight(2))) == 11
    assert len(generate_family(4, FamilyKind.random(11, seed=1))) == 11
    assert len(generate_family(3, FamilyKind.powerset())) == 8
    for n, kind in [(4, FamilyKind.highweight(3)), (4, FamilyKind.random(12, seed=1)),
                    (4, FamilyKind.powerset())]:
        with pytest.raises(ResourceLimitError):
            generate_family(n, kind)


def test_family_kind_validation():
    with pytest.raises(ParameterError):
        FamilyKind("midweight")
    with pytest.raises(ParameterError):
        FamilyKind.lowweight(-1)
    with pytest.raises(ParameterError):
        generate_family(2, FamilyKind.lowweight(3))


# --- text format ------------------------------------------------------------------


def test_text_format_round_trip():
    fam = generate_family(4, FamilyKind.lowweight(2))
    pts = embed_01(fam, 2)
    text = format_family_text(pts)
    assert parse_family_text(text) == pts
    # writing the parse result reproduces the bytes
    assert format_family_text(parse_family_text(text)) == text


def test_text_format_rejects_an_oversized_header_before_its_members():
    # a 300000-digit member would take seconds to encode: no member line is read
    # (this short one would fail with a FamilyFormatError) once the header fails
    with pytest.raises(ParameterError, match=r"p\*\*n = 3\*\*300000 exceeds"):
        parse_family_text("n=300000 p=3\n0\n")


def test_text_format_digit_order_is_least_significant_first():
    pts = PointSet.from_points(3, 3, [5])  # digits 2,1,0
    assert format_family_text(pts).splitlines()[1] == "210"


def test_text_format_comments_and_blank_lines():
    text = "# header comment\n\nn=2 p=2\n# inline\n10\n01\n"
    assert parse_family_text(text).points == (1, 2)


def test_text_format_errors_carry_line_numbers():
    with pytest.raises(FamilyFormatError) as exc:
        parse_family_text("n=2 p=2\n101\n")
    assert exc.value.line_number == 2
    with pytest.raises(FamilyFormatError) as exc:
        parse_family_text("n=2 p=3\n12\n20\nx1\n")
    assert exc.value.line_number == 4
    with pytest.raises(FamilyFormatError):
        parse_family_text("p=2 n=2\n")
    with pytest.raises(FamilyFormatError):
        parse_family_text("")
    with pytest.raises(FamilyFormatError):
        parse_family_text("n=2 p=11\n")
    with pytest.raises(FamilyFormatError) as exc:
        parse_family_text("n=2 p=3\n0\u00b2\n")  # str.isdigit accepts the superscript
    assert exc.value.line_number == 2


def test_parse_digits_accepts_only_ascii_digits_below_p():
    assert parse_digits("0120", 3) == [0, 1, 2, 0]
    assert parse_digits("", 2) == []
    for bad in ("2", "\u00b2", "\u0661", "-", " "):
        with pytest.raises(ParameterError):
            parse_digits(bad, 2)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.tuples(st.just(n), st.sets(st.integers(0, (1 << n) - 1), min_size=1))
    )
)
def test_text_round_trip_property(case):
    n, masks = case
    pts = embed_01(SetFamily.from_masks(n, masks), 2)
    assert parse_family_text(format_family_text(pts)) == pts
