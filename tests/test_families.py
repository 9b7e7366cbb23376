"""Family count tables against enumeration, closed forms, and frozen values."""

from fractions import Fraction

import pytest

from fqtcount import families, ffield, primecounts
from fqtcount.errors import EvenCharacteristic, NegativeCount, NotCoprime, ResourceLimit
from fqtcount.families import (
    FamilySpec,
    canonical_family,
    count_arith,
    count_divisors,
    count_landau,
    count_landau_poly_in_q,
    count_s_family,
    count_table,
    e_n,
    f_n,
    membership_oracle,
    oracle_count,
    psi_table,
    psi_value,
    rep_search_membership,
)
from fqtcount.ffield import MonicPoly, field_for_order
from fqtcount.primecounts import LPolynomial, pi_K


def capped_multisets(p, w, t):
    """Ways to write w as an ordered sum of p nonnegative parts <= t,
    by inclusion-exclusion over the parts that overflow."""
    from math import comb

    total = 0
    j = 0
    while j <= p and j * (t + 1) <= w:
        total += (-1) ** j * comb(p, j) * comb(w - j * (t + 1) + p - 1, p - 1)
        j += 1
    return total


def dp_divisor_count(L, r, ell, N):
    """Independent check: effective divisors of total degree r*n built
    from places whose degree is a multiple of r, multiplicities bounded
    by ell, via per-degree multiset counts and direct convolution."""
    from math import comb

    ways = [1] + [0] * N
    for d in range(1, N + 1):
        p = pi_K(L, r * d)
        layer = []
        for w in range(N // d + 1):
            if ell is None:
                layer.append(comb(w + p - 1, w))
            else:
                layer.append(capped_multisets(p, w, ell))
        new = [0] * (N + 1)
        for i, base in enumerate(ways):
            if not base:
                continue
            for w, c in enumerate(layer):
                if i + w * d > N:
                    break
                new[i + w * d] += base * c
        ways = new
    return ways


def test_landau_q3_frozen_values():
    # enumeration-verified truth for q=3, degrees 0..8
    table = count_landau(3, 8)
    assert [table.value(n) for n in range(9)] == [
        1, 2, 5, 12, 32, 84, 230, 632, 1770,
    ]


def test_landau_matches_enumeration():
    for q in (3, 5):
        field = field_for_order(q)
        spec = FamilySpec(canonical_family("landau"), q=q)
        table = count_landau(q, 4 if q == 3 else 3)
        for n in range(table.N + 1):
            assert table.value(n) == oracle_count(field, spec, n)


def test_landau_degree_two_closed_form():
    for q in (3, 5, 7, 9, 11, 13):
        assert count_landau(q, 2).value(2) == (3 * q * q + 4 * q + 1) // 8


def test_landau_rejects_even_q():
    with pytest.raises(EvenCharacteristic):
        count_landau(4, 3)


def test_landau_poly_in_q_interpolates_counts():
    for n in range(9):
        poly = count_landau_poly_in_q(n)
        for q in (3, 5, 7, 9, 11, 13, 25):
            assert poly(q) == count_landau(q, n).value(n)


def test_landau_poly_leading_coefficient():
    from math import comb

    for n in (1, 2, 3, 6):
        poly = count_landau_poly_in_q(n)
        assert poly.degree == n
        assert poly.leading_coefficient == Fraction(comb(2 * n, n), 4**n)


def test_s_families_frozen_and_enumerated():
    # q=3, half-degrees 0..4
    s1 = count_s_family(3, 1, 4)
    s2 = count_s_family(3, 2, 4)
    s3 = count_s_family(3, 3, 4)
    field = field_for_order(3)
    for which, table in ((1, s1), (2, s2), (3, s3)):
        spec = FamilySpec(canonical_family(f"s{which}"), q=3)
        for n in range(5):
            assert table.value(n) == oracle_count(field, spec, 2 * n)
    # containment: s3 counts squarefree members of s2
    assert all(s3.value(n) <= s2.value(n) for n in range(5))


def test_s_family_which_validation():
    with pytest.raises(ValueError):
        count_s_family(3, 4, 2)


def test_arith_matches_enumeration():
    field = field_for_order(3)
    m = MonicPoly((1, 0, 1))
    table = count_arith(field, (1, 1), m, 5)
    spec = FamilySpec(
        canonical_family("arith"), q=3, m=m.coeffs, a=(1, 1)
    )
    for n in range(6):
        assert table.value(n) == oracle_count(field, spec, n)


def test_arith_rejects_non_coprime_residue():
    field = field_for_order(3)
    with pytest.raises(NotCoprime):
        count_arith(field, (0,), MonicPoly((0, 1)), 3)


def test_arith_psi_table_checks_the_residue_once(monkeypatch):
    calls = []
    original = families._unit_residue
    monkeypatch.setattr(families, "_unit_residue",
                        lambda *a: calls.append(a) or original(*a))
    psi_table(FamilySpec("arith", q=3, m=(1, 0, 1), a=(1, 1)), 12)
    assert len(calls) == 1
    with pytest.raises(NotCoprime):
        psi_table(FamilySpec("arith", q=3, m=(0, 1), a=(0,)), 12)


def test_arith_cap_holds_whether_or_not_the_table_is_cached(monkeypatch):
    # the residue-class table of T^3+2T+1 enumerates degree 2: 9 > cap 5
    monkeypatch.setattr(primecounts, "_ARITH_CACHE", {})
    field, m = field_for_order(3), MonicPoly((1, 2, 0, 1))
    uncapped = count_arith(field, 1, m, 8)
    assert primecounts._ARITH_CACHE
    with pytest.raises(ResourceLimit, match="exceeds cap 5"):
        count_arith(field, 1, m, 8, cap=5)
    assert count_arith(field, 1, m, 8, cap=9).values == uncapped.values


def test_arith_cap_holds_from_cold_caches(monkeypatch):
    # a cap of 9 covers the table's degree-2 enumeration; factoring the
    # modulus for _group_ring_fits is not an enumeration and keeps the
    # default cap, so an empty plan cache does not change the answer
    monkeypatch.setattr(primecounts, "_ARITH_CACHE", {})
    monkeypatch.setattr(ffield, "_PLAN_CACHE", {})
    monkeypatch.setattr(ffield, "_IRR_CACHE", {})
    primecounts._group_ring_fits.cache_clear()
    field, m = field_for_order(3), MonicPoly((1, 2, 0, 1))
    capped = count_arith(field, 1, m, 8, cap=9)
    assert capped.values == count_arith(field, 1, m, 8).values


def test_divisors_against_dp_oracle():
    for q, coeffs in ((3, (1,)), (5, (1, -2, 5))):
        L = LPolynomial(q, coeffs)
        for r in (2, 3):
            for ell in (None, 1, 2):
                table = count_divisors(L, r, ell, 5)
                expected = dp_divisor_count(L, r, ell, 5)
                assert [table.value(n) for n in range(6)] == expected


def test_divisors_genus_zero_frozen():
    L = LPolynomial(3, (1,))
    table = count_divisors(L, 2, None, 4)
    assert [table.value(n) for n in range(5)] == [1, 3, 24, 180, 1452]


def test_divisor_validation():
    L = LPolynomial(3, (1,))
    with pytest.raises(ValueError):
        count_divisors(L, 1, None, 3)
    with pytest.raises(ValueError):
        count_divisors(L, 2, 0, 3)


def test_psi_value_matches_weighted_divisor_sums():
    specs = [
        FamilySpec(canonical_family("landau"), q=3),
        FamilySpec(canonical_family("s1"), q=3),
        FamilySpec(canonical_family("s2"), q=5),
        FamilySpec(canonical_family("s3"), q=3),
        FamilySpec(canonical_family("arith"), q=3, m=(0, 1), a=(1,)),
        FamilySpec(
            canonical_family("divisors"),
            l_poly=LPolynomial(3, (1,)),
            r=2,
        ),
    ]
    for spec in specs:
        g = spec.generator_counts(8)
        squarefree = canonical_family(spec.family) == "s3-even-degree-squarefree"
        for n in range(1, 9):
            if squarefree:
                direct = sum(
                    (-1) ** (n // d - 1) * d * g[d]
                    for d in range(1, n + 1)
                    if n % d == 0
                )
            else:
                direct = sum(
                    d * g[d] for d in range(1, n + 1) if n % d == 0
                )
            assert psi_value(spec, n) == direct


def _psi_table_reference_specs():
    for q in (3, 5, 9, 25, 27):
        yield FamilySpec(canonical_family("landau"), q=q)
    for name in ("s1", "s2", "s3"):
        for q in (2, 3, 4, 5, 9):
            yield FamilySpec(canonical_family(name), q=q)
    # T^2+1, T^3+2T+1, and the reducible T^2 and T^2+T over F_3
    for m, a in (((1, 0, 1), (1,)), ((1, 0, 1), (2, 1)), ((1, 2, 0, 1), (1, 1)),
                 ((0, 0, 1), (1, 1)), ((0, 1, 1), (2,))):
        yield FamilySpec(canonical_family("arith"), q=3, m=m, a=a)
    yield FamilySpec(canonical_family("arith"), q=4, m=(1, 1, 1), a=(2,))
    for L, r in ((LPolynomial(5, (1, 2, 5)), 2), (LPolynomial(3, (1, 0, 3)), 3),
                 (LPolynomial(3, (1, -2, 6, -6, 9)), 2)):
        yield FamilySpec(canonical_family("divisors"), l_poly=L, r=r)
        for ell in (1, 2, 3):
            yield FamilySpec("divisors-r-ell-K", l_poly=L, r=r, ell=ell)


@pytest.mark.parametrize("spec", list(_psi_table_reference_specs()),
                         ids=lambda s: s.label)
def test_psi_table_matches_generator_counts(spec):
    N = 24
    g = spec.generator_counts(N)
    squarefree = canonical_family(spec.family) == "s3-even-degree-squarefree"
    expected = [0]
    for n in range(1, N + 1):
        expected.append(sum((-1) ** (n // d - 1 if squarefree else 0) * d * g[d]
                            for d in range(1, n + 1) if n % d == 0))
    table = psi_table(spec, N)
    assert table == expected
    assert all(type(v) is int for v in table)
    assert psi_table(spec, 7) == expected[:8]
    assert [psi_value(spec, n) for n in (1, 12, 24)] == [expected[1], expected[12],
                                                          expected[24]]


@pytest.mark.parametrize("q", [2, 4])
def test_non_integral_psi_raises(monkeypatch, q):
    # landau at even q has psi_1 = (q + 1) / 2: the halving must not round
    spec = FamilySpec(canonical_family("landau"), q=q)
    with pytest.raises(NegativeCount, match="index 1"):
        psi_table(spec, 5)
    with pytest.raises(NegativeCount):
        psi_value(spec, 3)
    monkeypatch.setattr(FamilySpec, "validate", lambda self: None)
    with pytest.raises(NegativeCount, match="non-integral log-coefficient"):
        count_table(spec, 5)


def test_displacement_closed_forms():
    # e_n and f_n against their defining sums
    for q in (3, 5, 9):
        for n in range(1, 33):
            v2 = (n & -n).bit_length() - 1
            expected_e = Fraction(1, 2) + sum(
                Fraction(q ** (n >> i) - 1, 2) for i in range(1, v2 + 1)
            )
            assert e_n(q, n) == expected_e
            assert f_n(q, n) == Fraction(q ** (n >> v2), 2)


def test_membership_oracle_agrees_with_representation_search():
    field = field_for_order(3)
    spec = FamilySpec(canonical_family("landau"), q=3)
    from fqtcount import ffield

    for degree in (1, 2, 3):
        for f in ffield.enumerate_monic(field, degree):
            assert membership_oracle(field, f, spec) == rep_search_membership(
                field, f
            )


def test_count_table_serialization():
    table = count_landau(3, 3)
    data = table.to_json()
    assert data["family"] == "landau-A2TB2"
    assert data["values"] == {"0": "1", "1": "2", "2": "5", "3": "12"}
    assert data["N"] == 3
    assert data["params"]["q"] == 3


def test_count_table_rejects_negative_values():
    spec = FamilySpec(canonical_family("landau"), q=3)
    from fqtcount.families import CountTable

    with pytest.raises(NegativeCount):
        CountTable(spec, {0: 1, 1: -2}, "generating-function", 1)


def test_family_aliases():
    assert canonical_family("landau") == "landau-A2TB2"
    assert canonical_family("landau-A2TB2") == "landau-A2TB2"
    with pytest.raises(ValueError):
        canonical_family("unknown")
