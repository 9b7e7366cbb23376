"""Prime-polynomial and place counting, against brute-force oracles."""

import numpy as np
import pytest

from fqtcount import ffield, primecounts
from fqtcount.errors import NotCoprime, ResourceLimit, RHViolation
from fqtcount.ffield import MonicPoly, chi2, field_for_order
from fqtcount.primecounts import (
    CHI2_MINUS,
    CHI2_ZERO_OR_PLUS,
    LPolynomial,
    phi_m,
    pi_K,
    pi_arith,
    pi_chi2,
    pi_q,
    psi_chi2,
    progression_gap_squared,
)
from trial_division import trial_division_primes


def test_pi_q_against_brute_force():
    for q in (2, 3, 4, 5):
        field = field_for_order(q)
        for n in range(1, 5):
            if q**n > 700:
                continue
            assert pi_q(q, n) == len(trial_division_primes(field, n))


def test_pi_q_census_identity():
    # sum over d|n of d*pi_q(d) = q^n
    for q in (2, 3, 5, 9):
        for n in range(1, 13):
            total = sum(d * pi_q(q, d) for d in range(1, n + 1) if n % d == 0)
            assert total == q**n


def test_chi2_values_and_multiplicativity():
    field = field_for_order(5)
    # squares in F_5^* are {1, 4}
    assert chi2(field, MonicPoly((1, 1))) == 1
    assert chi2(field, MonicPoly((4, 1))) == 1
    assert chi2(field, MonicPoly((2, 1))) == -1
    assert chi2(field, MonicPoly((0, 1))) == 0
    for f in ffield.enumerate_monic(field, 1):
        for g in ffield.enumerate_monic(field, 2):
            prod = MonicPoly(ffield.poly_mul(field, f.coeffs, g.coeffs))
            assert chi2(field, prod) == chi2(field, f) * chi2(field, g)


def test_pi_chi2_splits_against_brute_force():
    for q in (3, 5):
        field = field_for_order(q)
        for n in range(1, 4):
            if q**n > 700:
                continue
            primes = trial_division_primes(field, n)
            minus = sum(1 for f in primes if chi2(field, f) == -1)
            rest = len(primes) - minus
            assert pi_chi2(q, n, CHI2_MINUS) == minus
            assert pi_chi2(q, n, CHI2_ZERO_OR_PLUS) == rest


def test_psi_chi2_is_weighted_divisor_sum():
    q = 3
    for n in range(1, 9):
        for cls in (CHI2_MINUS, CHI2_ZERO_OR_PLUS):
            direct = sum(
                d * pi_chi2(q, d, cls) for d in range(1, n + 1) if n % d == 0
            )
            # psi_chi2 uses the closed form, not the divisor sum
            assert psi_chi2(q, n, cls) == direct


def test_classes_exhaust_the_primes():
    for q in (3, 5, 9):
        for n in range(1, 7):
            assert (
                pi_chi2(q, n, CHI2_MINUS) + pi_chi2(q, n, CHI2_ZERO_OR_PLUS)
                == pi_q(q, n)
            )


def test_lpolynomial_genus_zero():
    L = LPolynomial(3, (1,))
    assert L.genus == 0
    # the place at infinity adds one to the degree-1 count
    assert pi_K(L, 1) == pi_q(3, 1) + 1
    for n in range(2, 8):
        assert pi_K(L, n) == pi_q(3, n)
    assert L.point_count(1) == 4
    assert L.point_count(2) == 10


def test_lpolynomial_genus_one_point_counts():
    # 1 + 3u^2 over F_3: inverse roots +-i*sqrt(3), N_1 = q + 1
    L = LPolynomial(3, (1, 0, 3))
    assert L.genus == 1
    assert L.point_count(1) == 4
    assert L.point_count(2) == 3**2 + 1 + 2 * 3  # power sum alpha^2 = -2q


def test_place_census_matches_point_counts():
    # sum over d|n of d*pi_K(d) telescopes back to N_n
    for q, coeffs in ((3, (1,)), (5, (1, -2, 5)), (3, (1, 0, 3))):
        L = LPolynomial(q, coeffs)
        for n in range(1, 9):
            total = sum(d * pi_K(L, d) for d in range(1, n + 1) if n % d == 0)
            assert total == L.point_count(n)


def test_check_rh_rejects_bad_inverse_roots():
    with pytest.raises(RHViolation):
        LPolynomial(3, (1, 5, 1)).check_rh()
    LPolynomial(3, (1, 0, 3)).check_rh()
    LPolynomial(5, (1, -2, 5)).check_rh()


def test_lpolynomial_validation():
    with pytest.raises(ValueError):
        LPolynomial(3, (2,))
    with pytest.raises(ValueError):
        LPolynomial(3, (1, 1))
    with pytest.raises(ValueError):
        LPolynomial(1, (1,))


def test_lpolynomial_json_roundtrip():
    L = LPolynomial(5, (1, -2, 5))
    back = LPolynomial.from_json(L.to_json())
    assert back == L


def test_phi_m_against_enumeration():
    for q in (2, 3, 5):
        field = field_for_order(q)
        for deg in (1, 2):
            for m in ffield.enumerate_monic(field, deg):
                units = 0
                for code in range(q**deg):
                    coeffs = []
                    c = code
                    while c:
                        c, digit = divmod(c, q)
                        coeffs.append(digit)
                    coeffs = tuple(coeffs) if coeffs else (0,)
                    if ffield.poly_gcd(field, coeffs, m.coeffs) == (1,):
                        units += 1
                assert phi_m(field, m) == units


def test_pi_arith_against_brute_force():
    for q, m_coeffs in ((3, (0, 1)), (3, (1, 0, 1)), (5, (1, 1))):
        field = field_for_order(q)
        m = MonicPoly(m_coeffs)
        for n in range(1, 4):
            if q**n > 400:
                continue
            residues = {}
            for f in trial_division_primes(field, n):
                rem = ffield.poly_mod_general(field, f.coeffs, m.coeffs)
                residues[rem] = residues.get(rem, 0) + 1
            for rem, expected in residues.items():
                if rem == () or ffield.poly_gcd(field, rem, m.coeffs) != (1,):
                    continue
                assert pi_arith(field, n, rem, m) == expected


@pytest.mark.parametrize("group_ring", [True, False])
def test_pi_arith_paths_match_trial_division(monkeypatch, group_ring):
    # per-class prime counts mod T^2+1 over F_3, from the group ring and,
    # with _group_ring_fits forced False, from enumeration
    field = field_for_order(3)
    m = MonicPoly((1, 0, 1))
    cache = {}
    monkeypatch.setattr(primecounts, "_ARITH_CACHE", cache)
    if not group_ring:
        monkeypatch.setattr(primecounts, "_group_ring_fits", lambda field, m: False)
    for n in range(1, 6):
        per_class = {}
        for f in trial_division_primes(field, n):
            rem = ffield.poly_mod_general(field, f.coeffs, m.coeffs)
            per_class[rem] = per_class.get(rem, 0) + 1
        for a in ((1,), (2,), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)):
            assert pi_arith(field, n, a, m) == per_class.get(a, 0), (n, a)
    assert bool(cache) == group_ring


def test_pi_arith_enumerates_past_the_unit_group_limit():
    # T^8+T^6+T^5+1 is irreducible over F_3: a ring of 6561 classes within
    # the group-ring limit, but 6560 units, more than the group ring accepts
    field = field_for_order(3)
    m = MonicPoly((1, 0, 0, 0, 0, 1, 1, 0, 1))
    assert phi_m(field, m) == 6560
    assert not primecounts._group_ring_fits(field, m)
    with pytest.raises(ResourceLimit):
        primecounts._ResidueGroup(field, m)
    # below deg m a prime is its own residue: each class holds one prime
    for n in range(1, 5):
        for prime in trial_division_primes(field, n)[:4]:
            assert pi_arith(field, n, prime, m) == 1
            assert pi_arith(field, n, prime.coeffs[:-1] + (2,), m) == 0


def test_pi_arith_enumeration_takes_the_callers_cap(monkeypatch):
    # T^8+T^6+T^5+1 over F_3 has too many units for the group ring, so
    # degree-4 classes are counted by enumerating the degree-4 primes,
    # within the caller's cap: 3^4 polynomials and a 5 x 48 digit
    # remainder plan.  Under FQT_CAP=50 with cold prime and plan caches,
    # the default cap stops it and cap=1000 lets it through.
    field = field_for_order(3)
    m = MonicPoly((1, 0, 0, 0, 0, 1, 1, 0, 1))
    primes = trial_division_primes(field, 4)
    per_class = {}
    for f in primes:
        rem = ffield.poly_mod_general(field, f.coeffs, m.coeffs)
        per_class[rem] = per_class.get(rem, 0) + 1
    monkeypatch.setenv("FQT_CAP", "50")
    monkeypatch.setattr(ffield, "_IRR_CACHE", {})
    monkeypatch.setattr(ffield, "_PLAN_CACHE", {})
    # factoring m for _group_ring_fits takes the default cap: force its answer
    monkeypatch.setattr(primecounts, "_group_ring_fits", lambda field, m: False)
    with pytest.raises(ResourceLimit):
        pi_arith(field, 4, (1,), m)
    for a in ((1,), primes[0].coeffs, primes[-1].coeffs):
        assert pi_arith(field, 4, a, m, cap=1000) == per_class.get(a, 0)
    # with the primes cached, a cap below their plan still stops the call
    with pytest.raises(ResourceLimit, match="remainder plan of degree 4"):
        pi_arith(field, 4, (1,), m, cap=100)


def test_pi_arith_rejects_bad_residue():
    field = field_for_order(3)
    with pytest.raises(NotCoprime):
        pi_arith(field, 2, (0,), MonicPoly((0, 1)))


def test_progression_gap_bound_holds():
    field = field_for_order(3)
    for m_coeffs in ((0, 1), (1, 1), (1, 0, 1)):
        m = MonicPoly(m_coeffs)
        for n in range(1, 7):
            count = pi_arith(field, n, (1,), m)
            gap_sq, bound_sq = progression_gap_squared(field, n, (1,), m, count)
            assert gap_sq <= bound_sq


def test_pi_q_small_values():
    assert pi_q(3, 1) == 3
    assert pi_q(2, 1) == 2
    assert pi_q(2, 2) == 1
    assert pi_q(2, 3) == 2
    assert pi_q(2, 4) == 3


def test_pow_map_composite_from_cached_maps():
    from fqtcount.primecounts import _ResidueGroup

    field = field_for_order(3)
    group = _ResidueGroup(field, MonicPoly((1, 2, 0, 1)))
    for k in range(0, 61):
        expected = []
        for code in group.codes:
            acc = 1
            for _ in range(k):
                acc = group._reduce_product(acc, code)
            expected.append(group.index[acc])
        assert group.pow_map(k).tolist() == expected
    assert group.pow_map(12) is group.pow_map(12)


@pytest.mark.parametrize("q, m, order", [
    (3, (0, 1, 1), 4),  # T(T+1) over F_3: C2 x C2
    (5, (0, 1, 1), 16),  # T(T+1) over F_5: C4 x C4
    (3, (1, 2, 0, 1), 26),  # irreducible: cyclic of order 26
])
def test_pow_map_reduces_k_mod_the_group_order(monkeypatch, q, m, order):
    from fqtcount.primecounts import _ResidueGroup

    group = _ResidueGroup(field_for_order(q), MonicPoly(m))
    assert group.order == order
    expected = {}
    for k in range(3 * order + 6):
        row = []
        for code in group.codes:
            acc = 1
            for _ in range(k):
                acc = group._reduce_product(acc, code)
            row.append(group.index[acc])
        expected[k] = row
    # no pow_map(k) with k > |G| may multiply residues itself
    active, reached = [], []
    pow_map, reduce_product = _ResidueGroup.pow_map, _ResidueGroup._reduce_product

    def tracked_pow_map(self, k):
        active.append(k)
        try:
            return pow_map(self, k)
        finally:
            active.pop()

    def tracked_reduce(self, a, b):
        reached.append(active[-1])
        return reduce_product(self, a, b)

    monkeypatch.setattr(_ResidueGroup, "pow_map", tracked_pow_map)
    monkeypatch.setattr(_ResidueGroup, "_reduce_product", tracked_reduce)
    for k in range(3 * order + 6):
        assert group.pow_map(k).tolist() == expected[k], k
    assert reached and max(reached) <= order


def quadratic_psi(table, n):
    """psi_1..psi_n by psi_k = k Z_k - sum_{j<k} Z_(k-j) psi_j, one product per term."""
    d, q, order = table.m.degree, table.field.q, table.group.order

    def zeta_times(x, k):
        if k < d:
            return table.group.convolve(x, table._z[k])
        return np.full(order, int(sum(x)) * q ** (k - d), dtype=object)

    psi = []
    for k in range(1, n + 1):
        acc = k * table._z[k] if k < d else np.full(order, k * q ** (k - d), dtype=object)
        for j in range(1, k):
            acc = acc - zeta_times(psi[j - 1], k - j)
        psi.append(acc)
    return psi


@pytest.mark.parametrize("q", [2, 3, 5])
@pytest.mark.parametrize("m", [(1, 1), (1, 0, 1), (1, 1, 0, 1)], ids=["deg1", "deg2", "deg3"])
def test_horner_psi_matches_the_quadratic_recurrence(q, m):
    from fqtcount.primecounts import _ArithTable

    table = _ArithTable(field_for_order(q), MonicPoly(m))
    n = 24
    table._extend_psi(7)  # extending in two steps carries the Horner sum across calls
    table._extend_psi(n)
    want = quadratic_psi(table, n)
    assert [v.tolist() for v in table._psi] == [v.tolist() for v in want]
    assert table._psi_sums == [int(sum(v)) for v in want]
