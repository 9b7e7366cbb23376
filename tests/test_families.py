"""Family count tables against enumeration, closed forms, and frozen values."""

from fractions import Fraction

import pytest

from fqtcount import characters, families, ffield, primecounts, universe
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
    membership_oracle,
    oracle_count,
    psi_table,
    psi_value,
    rep_search_membership,
)
from fqtcount.ffield import MonicPoly, field_for_order
from fqtcount.primecounts import LPolynomial, pi_K, pi_arith, pi_q
from fqtcount.qpoly import QPoly

from closed_forms import e_n, f_n, s3_alternating_psi, twice_e, twice_f, twice_psi


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
    # deg m > n and 3^(deg m) > 2^53: each prime is its own residue, so
    # the members are the powers of T+1
    big = MonicPoly((2, 1) + (0,) * 32 + (1,))
    table = count_arith(field, (1, 1), big, 6)
    spec = FamilySpec(canonical_family("arith"), q=3, m=big.coeffs, a=(1, 1))
    for n in range(7):
        assert table.value(n) == oracle_count(field, spec, n) == 1


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
    # modulus for _character_table_fits is not an enumeration and answers to
    # no cap, so empty caches do not change the answer
    monkeypatch.setattr(primecounts, "_ARITH_CACHE", {})
    monkeypatch.setattr(universe, "_UNIVERSE_CACHE", {})
    primecounts._character_table_fits.cache_clear()
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
        for n in range(1, 9):
            direct = sum(
                d * g[d] for d in range(1, n + 1) if n % d == 0
            )
            assert psi_value(spec, n) == direct


@pytest.mark.parametrize("q", [2, 3, 5, 9])
def test_s3_psi_is_the_alternating_sum_over_even_degree_primes(q):
    # s3's effective generator counts pi_q(2n) - [2|n] pi_q(n) turn the
    # squarefree product's alternating sum into a plain divisor sum
    N = 24
    g = FamilySpec("s3", q=q).generator_counts(N)
    assert g == {n: pi_q(q, 2 * n) - (pi_q(q, n) if n % 2 == 0 else 0)
                 for n in range(1, N + 1)}
    assert psi_table(FamilySpec("s3", q=q), N) == [0] + [
        s3_alternating_psi(q, n) for n in range(1, N + 1)]


@pytest.mark.parametrize("m, a", [((1, 0, 1), (1,)), ((1, 0, 1), (2, 1)), ((0, 0, 1), (1, 1))])
def test_arith_generator_counts_build_the_class_table_once(monkeypatch, m, a):
    # T^2+1 over F_3 is square-free, T^2 a prime power: one build each
    field, N = field_for_order(3), 200
    monkeypatch.setattr(primecounts, "_ARITH_CACHE", {})
    builds = []
    build = characters.CharacterTable._build
    monkeypatch.setattr(characters.CharacterTable, "_build",
                        lambda self, n: (builds.append(n), build(self, n)))
    g = FamilySpec(canonical_family("arith"), q=3, m=m, a=a).generator_counts(N)
    assert builds == [N]
    assert [g[n] for n in range(1, N + 1)] == [pi_arith(field, n, a, MonicPoly(m))
                                               for n in range(1, N + 1)]


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
    expected = [0]
    for n in range(1, N + 1):
        expected.append(sum(d * g[d] for d in range(1, n + 1) if n % d == 0))
    table = psi_table(spec, N)
    assert table == expected
    assert all(type(v) is int for v in table)
    assert psi_table(spec, 7) == expected[:8]
    assert [psi_value(spec, n) for n in (1, 12, 24)] == [expected[1], expected[12],
                                                          expected[24]]


@pytest.mark.parametrize("name, qs", [
    ("landau", (3, 5, 7, 9, 25, 101)),
    ("s1", (2, 3, 4, 5, 7, 9, 101)),
])
def test_norm_psi_matches_the_closed_forms(name, qs):
    # the J recursion of the norm construction against each family's
    # hand-written closed form
    N = 200
    for q in qs:
        psi = psi_table(FamilySpec(name, q=q), N)
        assert [2 * v for v in psi[1:]] == [twice_psi(name, q.__pow__, n)
                                            for n in range(1, N + 1)]


def test_norm_psi_over_qpoly_matches_the_closed_forms():
    power = QPoly.q_power
    landau = families._norm_twice_psi(families.CHI_MINUS_T, power, 60)
    assert all(landau[n] == twice_psi("landau", power, n) for n in range(1, 61))
    # 2 psi_n - q^n = rho_n + J_(n/2) = 2 e_n
    assert all(landau[n] - power(n) == twice_e(power, n) for n in range(1, 61))
    s1 = families._norm_twice_psi(families.CHI_CONSTANT, power, 60)
    # members have even degree; index n holds psi_(2n) / 2, and
    # 2 psi_(2n) - 2 q^(2n) = J_n = 4 f_n
    assert all(s1[n] == 0 for n in range(1, 61, 2))
    assert all(s1[2 * n] == 2 * twice_psi("s1", power, n) for n in range(1, 31))
    assert all(s1[2 * n] - 2 * power(2 * n) == 2 * twice_f(power, n) for n in range(1, 31))


@pytest.mark.parametrize("name, q, N", [
    ("s2", 3, 800), ("s2", 101, 300), ("s3", 5, 600), ("s3", 3, 800),
])
def test_genus_zero_places_match_the_closed_forms(name, q, N):
    psi = psi_table(FamilySpec(name, q=q), N)
    assert [2 * v for v in psi[1:]] == [twice_psi(name, q.__pow__, n)
                                        for n in range(1, N + 1)]
    ell = None if name == "s2" else 1
    divisors = FamilySpec("divisors" if ell is None else "divisors-r-ell-K",
                          l_poly=LPolynomial(q, (1,)), r=2, ell=ell)
    assert psi_table(divisors, N) == psi


def test_s2_and_s3_share_one_genus_zero_curve():
    s2, s3 = FamilySpec("s2", q=3).construction, FamilySpec("s3", q=3).construction
    assert s2.l_poly is s3.l_poly == LPolynomial(3, (1,))
    assert (s2.r, s2.ell, s3.r, s3.ell) == (2, None, 2, 1)


def _genus_zero_sieve_cases():
    for q in (2, 3, 4, 5, 9):
        for r in (2, 3):
            for ell in (None, 1, 2):
                yield q, r, ell


@pytest.mark.parametrize("q, r, ell", list(_genus_zero_sieve_cases()))
def test_genus_zero_sieve_matches_the_series(q, r, ell):
    # on the projective line the divisor families are monic polynomials,
    # so the enumeration sieve counts them degree by degree
    family = "divisors" if ell is None else "divisors-r-ell-K"
    spec = FamilySpec(family, l_poly=LPolynomial(q, (1,)), r=r, ell=ell)
    field = spec.field()
    N = max(n for n in range(1, 8) if q ** (r * n) <= 20000)
    table = count_table(spec, N)
    assert [oracle_count(field, spec, r * n) for n in range(N + 1)] == [
        table.value(n) for n in range(N + 1)]


def test_higher_genus_has_no_oracle():
    spec = FamilySpec("divisors", l_poly=LPolynomial(5, (1, -2, 5)), r=2)
    with pytest.raises(ValueError, match="no enumeration oracle"):
        spec.field()
    with pytest.raises(ValueError, match="no enumeration oracle"):
        families.membership_rule(field_for_order(5), spec)


@pytest.mark.parametrize("table", ["psi", "generators"])
def test_places_fill_the_counts_once_per_table(monkeypatch, table):
    fills = []
    fill = LPolynomial._fill_place_counts
    monkeypatch.setattr(LPolynomial, "_fill_place_counts",
                        lambda self, M: (fills.append(M), fill(self, M)))
    for ell in (None, 2):
        spec = FamilySpec("divisors" if ell is None else "divisors-r-ell-K",
                          l_poly=LPolynomial(5, (1, 2, 5)), r=2, ell=ell)
        if table == "psi":
            psi_table(spec, 400)
        else:
            spec.generator_counts(400)
    assert fills == [800, 800]


def test_spec_rejects_fields_its_family_does_not_take():
    with pytest.raises(ValueError, match="takes no ell"):
        FamilySpec("s2", q=3, ell=1).validate()
    with pytest.raises(ValueError, match="takes no l_poly"):
        FamilySpec("landau", q=3, l_poly=LPolynomial(3, (1,))).validate()
    with pytest.raises(ValueError, match="needs q"):
        FamilySpec("s1").validate()
    with pytest.raises(ValueError, match="takes no ell"):
        FamilySpec("divisors", l_poly=LPolynomial(3, (1,)), r=2, ell=1).validate()


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
            assert membership_oracle(field, ffield.factor(field, f), spec) == rep_search_membership(
                field, f
            )


def test_membership_oracle_over_a_large_prime_field_stays_small():
    import tracemalloc

    # q^2 < 2^63 <= q'^2: degree-1 prime codes fit in int64 over F_q only
    for q in (10**6 + 3, 3037000493):
        spec = FamilySpec("landau", q=q)
        field = spec.field()
        tracemalloc.start()
        try:
            got = [membership_oracle(field, ffield.factor(field, MonicPoly((c, 1))), spec)
                   for c in (0, 2, 5, q - 1)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert got == [ffield.chi2(field, MonicPoly((c, 1))) != -1 for c in (0, 2, 5, q - 1)]
    spec = FamilySpec("landau", q=3037000507)
    with pytest.raises(ResourceLimit, match="exceed int64"):
        membership_oracle(spec.field(), ffield.factor(spec.field(), MonicPoly((5, 1))), spec)


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
