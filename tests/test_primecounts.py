"""Prime-polynomial and place counting, against brute-force oracles."""

import bisect
import itertools
import math
import operator
import random

import pytest

from fqtcount import characters, ffield, numtheory, primecounts, series, universe
from fqtcount.constants import constant_Cam
from fqtcount.errors import NegativeCount, NotCoprime, ResourceLimit, RHViolation
from fqtcount.families import count_arith
from fqtcount.ffield import MonicPoly, chi2, field_for_order
from fqtcount.cli import main
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
from group_ring import GroupRing
from trial_division import scalar_class_count, trial_division_factor, trial_division_primes


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


def per_degree_place_count(L, n):
    """pi(n) the per-degree way: Moebius over the divisors of n alone, each
    point count with its own q^d, and the same checks as LPolynomial.pi."""
    total = sum(numtheory.mobius(n // d) * L.point_count(d) for d in numtheory.divisors(n))
    count, rem = divmod(total, n)
    if rem or count < 0:
        raise NegativeCount(f"place count at n={n} is not a nonnegative integer")
    return count


def _outcome(f, *args):
    try:
        return f(*args)
    except NegativeCount as exc:
        return str(exc)


@pytest.mark.parametrize("q, coeffs", [
    (5, (1, 2, 5)), (3, (1,)), (3, (1, 0, 3)), (2, (1, -1, 2)), (7, (1, 3, 9, 21, 49)),
    (3, (1, -10, 1)),  # N_1 < 0: every degree fails
    (3, (1, -3, 10)),  # N_5 < 0, and degrees 7 and 8 are counted
    (3, (1, -2, -3)),  # degree 2 is not integral
])
def test_one_pass_place_counts_equal_the_per_degree_route(q, coeffs):
    degrees = list(range(1, 130))
    random.Random(q * 1000 + len(coeffs)).shuffle(degrees)
    L, ref = LPolynomial(q, coeffs), LPolynomial(q, coeffs)
    for n in [1, 2, 3, 64] + degrees + [400]:
        assert _outcome(L.pi, n) == _outcome(per_degree_place_count, ref, n)


def test_place_counts_fill_to_twice_those_kept(monkeypatch):
    L, fills = LPolynomial(5, (1, 2, 5)), []
    fill = LPolynomial._fill_place_counts
    monkeypatch.setattr(LPolynomial, "_fill_place_counts",
                        lambda self, M: (fills.append(M), fill(self, M)))
    for n in range(1, 101):
        L.pi(n)
    L.pi(500)
    assert fills == [1, 2, 4, 8, 16, 32, 64, 128, 500]
    with pytest.raises(ValueError):
        L.pi(0)


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
    # a linear modulus is prime at once: no power mod m, over any p
    huge, m = ffield.build_field(2**31 - 1), MonicPoly((5, 1))
    assert ffield.factor(huge, m).factors == ((m, 1),)
    assert phi_m(huge, m) == 2**31 - 2


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


@pytest.mark.parametrize("path", ["characters", "group-ring", "enumeration"])
def test_pi_arith_paths_match_trial_division(monkeypatch, path):
    # per-class prime counts mod T^2+1 over F_3: in the character basis,
    # from the dense group-ring reference and, with _character_table_fits
    # forced False, from enumeration
    field = field_for_order(3)
    m = MonicPoly((1, 0, 1))
    cache = {}
    monkeypatch.setattr(primecounts, "_ARITH_CACHE", cache)
    if path == "enumeration":
        monkeypatch.setattr(primecounts, "_character_table_fits", lambda field, m: False)
    ring = GroupRing(field, m)
    for n in range(1, 6):
        per_class = {}
        for f in trial_division_primes(field, n):
            rem = ffield.poly_mod_general(field, f.coeffs, m.coeffs)
            per_class[rem] = per_class.get(rem, 0) + 1
        for a in ((1,), (2,), (0, 1), (1, 1), (2, 1), (0, 2), (1, 2), (2, 2)):
            got = (ring.count(n, ffield.code_of(field, a)) if path == "group-ring"
                   else pi_arith(field, n, a, m))
            assert got == per_class.get(a, 0), (n, a)
    kinds = [type(table) for table in cache.values()]
    assert kinds == ([characters.CharacterTable] if path == "characters" else [])


def test_pi_arith_enumerates_past_the_unit_group_limit():
    # T^8+T^6+T^5+1 is irreducible over F_3: a ring of 6561 classes within
    # the residue-ring limit, but 6560 units, more than the character
    # table accepts
    field = field_for_order(3)
    m = MonicPoly((1, 0, 0, 0, 0, 1, 1, 0, 1))
    assert phi_m(field, m) == 6560 > primecounts._MAX_UNIT_GROUP
    assert not primecounts._character_table_fits(field, m)
    # below deg m a prime is its own residue: each class holds one prime
    for n in range(1, 5):
        for prime in trial_division_primes(field, n)[:4]:
            assert pi_arith(field, n, prime, m) == 1
            assert pi_arith(field, n, prime.coeffs[:-1] + (2,), m) == 0


def test_pi_arith_enumeration_takes_the_callers_cap(monkeypatch):
    # T^8+T^6+T^5+1 over F_3 has too many units for the character table,
    # so degree-4 classes are counted by enumerating the 3^4 degree-4
    # polynomials, within the caller's cap.  Under FQT_CAP=50 with a cold
    # sieve, the default cap stops it and cap=1000 lets it through;
    # factoring m for _character_table_fits answers to no cap.
    field = field_for_order(3)
    m = MonicPoly((1, 0, 0, 0, 0, 1, 1, 0, 1))
    primes = trial_division_primes(field, 4)
    per_class = {}
    for f in primes:
        rem = ffield.poly_mod_general(field, f.coeffs, m.coeffs)
        per_class[rem] = per_class.get(rem, 0) + 1
    monkeypatch.setenv("FQT_CAP", "50")
    monkeypatch.setattr(universe, "_UNIVERSE_CACHE", {})
    with pytest.raises(ResourceLimit):
        pi_arith(field, 4, (1,), m)
    for a in ((1,), primes[0].coeffs, primes[-1].coeffs):
        assert pi_arith(field, 4, a, m, cap=1000) == per_class.get(a, 0)
    # with the primes cached, a cap below 3^4 still stops the call
    with pytest.raises(ResourceLimit, match="exceeds cap 80"):
        pi_arith(field, 4, (1,), m, cap=80)


# moduli of degree 1-4, with repeated factors (T^2, T^3+T^2 = T^2 (T+1))
_SIEVED_MODULI = ((0, 1), (1, 1), (0, 0, 1), (1, 0, 1), (1, 1, 0, 1), (0, 0, 1, 1),
                  (1, 0, 0, 0, 1))


@pytest.mark.parametrize("q, N", [(2, 10), (3, 7), (4, 5), (5, 5), (9, 4)])
def test_sieved_class_counts_match_the_scalar_loop(monkeypatch, q, N):
    # with _character_table_fits forced False, every table and pi_arith
    # count the sieve's primes by their batched residues; the reference
    # reduces each prime by one scalar division
    monkeypatch.setattr(primecounts, "_character_table_fits", lambda field, m: False)
    field = field_for_order(q)
    for coeffs in _SIEVED_MODULI:
        m = MonicPoly(coeffs)
        for a in _units(field, m)[:6]:
            code = primecounts._unit_residue(field, a, m)
            expected = [scalar_class_count(field, n, code, m) for n in range(1, N + 1)]
            assert primecounts._class_counts(field, N, code, m, None) == expected, (m, a)
            assert pi_arith(field, N, a, m) == expected[-1]


def test_sieved_class_counts_over_f101():
    # T^3+T+1 over F_101 is past the residue-ring limit; at n = 2 the
    # sieve holds the 10,201 monic polynomials of degree 2
    field = field_for_order(101)
    m = MonicPoly((1, 1, 0, 1))
    assert not primecounts._character_table_fits(field, m)
    code = primecounts._unit_residue(field, (2, 1), m)
    expected = [scalar_class_count(field, n, code, m) for n in (1, 2)]
    assert expected == [1, 0]  # T+2 is a prime, and its own residue
    assert primecounts._class_counts(field, 2, code, m, None) == expected
    square = primecounts._unit_residue(field, (2, 0, 1), m)  # T^2+2, irreducible over F_101
    assert primecounts._class_counts(field, 2, square, m, None) == [0, 1]


def test_phi_m_answers_to_no_enumeration_cap(monkeypatch):
    # factoring m enumerates nothing, so FQT_CAP=50 does not stop it
    field = field_for_order(3)
    m = MonicPoly((1, 0, 0, 0, 0, 1, 1, 0, 1))
    expected = 1
    for prime, mult in trial_division_factor(field, m).factors:
        expected *= 3 ** (prime.degree * mult) - 3 ** (prime.degree * (mult - 1))
    monkeypatch.setenv("FQT_CAP", "50")
    assert phi_m(field, m) == expected == 6560


def test_integer_residue_is_an_element_code_everywhere():
    # 5 is not an element of F_3; no entry point reads it as the code of T+2
    field, m = field_for_order(3), MonicPoly((1, 0, 1))
    for call in (lambda: pi_arith(field, 2, 5, m),
                 lambda: count_arith(field, 5, m, 4),
                 lambda: constant_Cam(field, 5, m, 10)):
        with pytest.raises(ValueError, match="integer residue must be a field element code"):
            call()
    assert count_arith(field, 2, m, 4).values == count_arith(field, (2,), m, 4).values


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


# -- the character basis --------------------------------------------------


def _moduli(field, repeated):
    """Every monic m over field with phi(m) <= 24, square-free or with a
    repeated prime factor as asked, each with phi(m)."""
    q, out = field.q, []
    for d in itertools.count(1):
        # phi(m) >= q^d prod (1 - q^-deg P) over every prime P of degree
        # <= d, a bound that does not fall as d grows
        if q**d * math.prod((1 - q**-j) ** pi_q(q, j) for j in range(1, d + 1)) > 24:
            return out
        for tail in itertools.product(range(q), repeat=d):
            m = MonicPoly(tail + (1,))
            fact = ffield.factor(field, m).factors
            phi = math.prod(q**(P.degree * e) - q**(P.degree * (e - 1)) for P, e in fact)
            if phi <= 24 and any(e > 1 for _, e in fact) == repeated:
                out.append((m, phi))


def _square_free_moduli(field, sample, seed):
    """Every square-free monic m over field with phi(m) <= 24, then a
    seeded sample of square-free m with 24 < phi(m) <= 728 (and q^deg m
    within the residue-ring limit), each with phi(m)."""
    q, out = field.q, _moduli(field, repeated=False)
    rng, drawn = random.Random(seed), 0
    top = max(d for d in range(1, 17) if q**d <= 10**5 and q**d // 4 <= 728)
    while drawn < sample:
        m = MonicPoly(tuple(rng.randrange(q) for _ in range(rng.randint(2, top))) + (1,))
        fact = ffield.factor(field, m).factors
        phi = math.prod(q**P.degree - 1 for P, _ in fact)
        if 24 < phi <= 728 and all(e == 1 for _, e in fact) and q**m.degree <= 10**5:
            out.append((m, phi))
            drawn += 1
    return out


def _units(field, m):
    """Coefficient tuples of the units mod m, by code."""
    codes = (ffield.coeffs_of_code(field, c) for c in range(1, field.q**m.degree))
    return [a for a in codes if ffield.poly_gcd(field, a, m.coeffs) == (1,)]


def _class_lists(field, m, units, N):
    """pi(n; a) mod m for n = 1..N and every unit a, from a fresh table:
    one class-count pass per a, its residue checked once (pi_arith's own
    first step), and its last count read again by pi_arith."""
    primecounts._ARITH_CACHE.clear()
    out = {}
    for a in units:
        code = primecounts._unit_residue(field, a, m)
        out[a] = primecounts._class_counts(field, N, code, m, None)
        assert len(out[a]) == N and out[a][-1] == pi_arith(field, N, a, m)
    return out


def _trial_division_classes(field, m, n):
    """The degree-n primes in each class mod m, by trial division."""
    per_class = {}
    for prime in trial_division_primes(field, n):
        rem = ffield.poly_mod_general(field, prime.coeffs, m.coeffs)
        per_class[rem] = per_class.get(rem, 0) + 1
    return per_class


def _check_class_counts(field, m, phi, rng):
    """pi_arith mod m to n = 30 against the dense group-ring reference
    (fewer degrees as phi grows) and against trial division for
    q^n <= 2000; past phi = 64 on a seeded sample of 16 classes.  Returns
    the character table that answered."""
    units = _units(field, m)
    assert len(units) == phi
    if phi > 64:
        units = rng.sample(units, 16)
    got = _class_lists(field, m, units, 30)
    table = primecounts._ARITH_CACHE[(field.p, field.k, field.modulus, m.coeffs)]
    assert isinstance(table, characters.CharacterTable) and table.group.order == phi
    assert len(table._psi) >= 30
    dense_n = 30 if phi <= 64 else 12 if phi <= 256 else m.degree + 1
    ring = GroupRing(field, m)
    want = {a: [ring.count(n, ffield.code_of(field, a)) for n in range(1, dense_n + 1)]
            for a in units}
    assert {a: counts[:dense_n] for a, counts in got.items()} == want, m
    for n in range(1, 31):
        if field.q**n > 2000:
            break
        per_class = _trial_division_classes(field, m, n)
        assert [got[a][n - 1] for a in units] == [per_class.get(a, 0) for a in units], (m, n)
    return table


@pytest.mark.parametrize("q", [2, 3, 4, 5, 9])
def test_character_basis_matches_the_group_ring_and_trial_division(monkeypatch, q):
    # every square-free m with phi <= 24 and a seeded sample up to phi = 728
    monkeypatch.setattr(primecounts, "_ARITH_CACHE", {})
    rng = random.Random(q)
    for m, phi in _square_free_moduli(field_for_order(q), sample=3, seed=q):
        _check_class_counts(field_for_order(q), m, phi, rng)


@pytest.mark.parametrize("q, count", [(2, 53), (3, 15), (4, 4), (5, 5), (9, 0)])
def test_repeated_factors_match_the_group_ring_and_trial_division(monkeypatch, q, count):
    # every m with a repeated prime factor and phi <= 24; over F_9 there is
    # none, as (T-a)^2 has 72 units
    monkeypatch.setattr(primecounts, "_ARITH_CACHE", {})
    field, rng = field_for_order(q), random.Random(q)
    moduli = _moduli(field, repeated=True)
    assert len(moduli) == count
    for m, phi in moduli:
        _check_class_counts(field, m, phi, rng)


@pytest.mark.parametrize("q, m, orders", [
    (2, (0, 0, 0, 0, 1), [4, 2, 1]),  # T^4: c_1 = 2, and j = 2 is skipped
    (2, (0,) * 5 + (1,), [8, 2, 1]),  # T^5: c_1 = 3
    (2, (0,) * 9 + (1,), [16, 4, 2, 2, 1]),  # T^9: j = 1, 3, 5, 7
    (3, (0,) * 4 + (1,), [9, 3, 2]),  # T^4: j = 3 is skipped
    (3, (0,) * 7 + (1,), [9, 9, 3, 3, 2]),  # T^7: j = 3 and 6 are skipped
    (4, (0, 0, 0, 1), [4, 4, 3]),  # T^3 over F_4: Y^0 and Y^1 for j = 1
    (9, (0, 0, 1), [3, 3, 8]),  # T^2 over F_9: Y^0 and Y^1 for j = 1
    (3, (1, 0, 2, 0, 1), [3, 3, 8]),  # (T^2+1)^2: T^0 and T^1 for j = 1
])
def test_prime_power_unit_groups(monkeypatch, q, m, orders):
    # the 1-unit generators 1 + Y^s T^i P^j (orders p^c_j) and h (order
    # q^d - 1), whose products give every unit one index
    monkeypatch.setattr(primecounts, "_ARITH_CACHE", {})
    field = field_for_order(q)
    table = _check_class_counts(field, MonicPoly(m), math.prod(orders), random.Random(q))
    assert table.group.orders == orders


def test_character_basis_past_the_dense_range(monkeypatch):
    # T^7+2T+1 over F_3 is (degree 2)(degree 5): units C8 x C242, phi = 1936,
    # a group a dense group-ring recurrence takes half a minute over at n = 30
    monkeypatch.setattr(primecounts, "_ARITH_CACHE", {})
    field, m = field_for_order(3), MonicPoly((1, 2, 0, 0, 0, 0, 0, 1))
    assert [P.degree for P, _ in ffield.factor(field, m).factors] == [2, 5]
    units = random.Random(7).sample(_units(field, m), 12)
    got = _class_lists(field, m, units, 30)
    table = primecounts._ARITH_CACHE[(field.p, field.k, field.modulus, m.coeffs)]
    assert table.group.orders == [8, 242] and table.group.order == 1936
    for n in range(1, 7):
        per_class = _trial_division_classes(field, m, n)
        assert [got[a][n - 1] for a in units] == [per_class.get(a, 0) for a in units], n


@pytest.mark.parametrize("m", ["T^2+1", "T^4+2T^2+1"])
def test_cli_progressions_build_character_tables(monkeypatch, capsys, m):
    # a square-free m and a square, through count, estimate and constants
    monkeypatch.setattr(primecounts, "_ARITH_CACHE", {})
    for argv in (["count", "arith", "--max-n", "40"],
                 ["estimate", "arith", "--n", "30"],
                 ["constants", "cam", "--digits", "30"]):
        code = main(argv + ["--q", "3", "--m", m, "--a", "T+1"])
        assert code == 0, capsys.readouterr().err
    assert {type(t) for t in primecounts._ARITH_CACHE.values()} == {characters.CharacterTable}


def test_repeated_factor_takes_the_character_basis(monkeypatch):
    # T^2(T+1) over F_3: the 1-unit group of T^2 is C3, and the units are
    # C3 x C2 x C2, not cyclic
    field, m = field_for_order(3), MonicPoly((0, 0, 1, 1))
    monkeypatch.setattr(primecounts, "_ARITH_CACHE", {})
    units = _units(field, m)
    got = _class_lists(field, m, units, 6)
    assert all(isinstance(t, characters.CharacterTable)
               for t in primecounts._ARITH_CACHE.values())
    for n in range(1, 7):
        per_class = _trial_division_classes(field, m, n)
        assert [got[a][n - 1] for a in units] == [per_class.get(a, 0) for a in units], n


def test_character_table_reports_its_size_to_the_cache(monkeypatch):
    # the benchmark reads group.order and len(_psi) off each cached table
    monkeypatch.setattr(primecounts, "_ARITH_CACHE", {})
    field, m = field_for_order(3), MonicPoly((1, 0, 1))
    for n in range(1, 13):
        pi_arith(field, n, (1, 1), m)
    (table,) = primecounts._ARITH_CACHE.values()
    assert table.group.order == 8
    assert len(table._psi) >= 12


def test_character_table_rebuilds_for_a_larger_degree(monkeypatch):
    # a table built to 20 answers to 20 and is rebuilt, with more primes,
    # when a pass past it is asked; the counts agree on the overlap, and a
    # shorter pass reads the kept counts without a rebuild
    monkeypatch.setattr(primecounts, "_ARITH_CACHE", {})
    field, m = field_for_order(3), MonicPoly((1, 2, 0, 1))
    code = primecounts._unit_residue(field, (1,), m)
    short = primecounts._class_counts(field, 20, code, m, None)
    (table,) = primecounts._ARITH_CACHE.values()
    assert len(short) == len(table._psi) == 20
    primes = len(table._ells)
    long = primecounts._class_counts(field, 150, code, m, None)
    assert len(long) == len(table._psi) == 150 and len(table._ells) > primes
    assert long[:20] == short
    assert primecounts._class_counts(field, 20, code, m, None) == short
    assert len(table._psi) == 150


@pytest.mark.parametrize("q, m, N", [
    (2, (1, 1, 0, 1), 200), (2, (1, 0, 0, 1, 1), 150), (3, (1, 2, 0, 1), 200),
    (3, (0, 0, 1, 1), 130), (5, (2, 0, 1), 140), (9, (1, 1), 100),
])
def test_one_crt_plan_equals_the_per_block_prefixes(monkeypatch, q, m, N):
    # the class counts are rebuilt by one plan over all the table's primes;
    # each 64-degree block rebuilt over only the primes 2 q^hi asks for,
    # from the same residues, gives the same integers
    monkeypatch.setattr(primecounts, "_ARITH_CACHE", {})
    rows, calls = series._CrtPlan.rows, []
    monkeypatch.setattr(series._CrtPlan, "rows",
                        lambda plan, res: calls.append((plan, res)) or rows(plan, res))
    field, m = field_for_order(q), MonicPoly(m)
    for a in random.Random(q).sample(_units(field, m), 3):
        primecounts._class_counts(field, N, ffield.code_of(field, a), m, None)
    blocks = -(-N // 64)
    assert len(calls) == 3 * blocks
    for i, (plan, res) in enumerate(list(calls)):
        primes = plan.primes.tolist()
        lo = i % blocks * 64
        hi = min(N, lo + 64)
        used = bisect.bisect_right(list(itertools.accumulate(primes, operator.mul)), 2 * q**hi) + 1
        assert len(res) == hi - lo and used <= len(primes)
        assert rows(plan, res) == rows(series._CrtPlan(primes[:used]), res[:, :used])


def test_pi_arith_grows_a_short_table_to_twice_its_length(monkeypatch):
    # degrees asked one at a time by pi_arith rebuild the table to at
    # least twice its length, and at least to the degree asked
    monkeypatch.setattr(primecounts, "_ARITH_CACHE", {})
    field, m = field_for_order(3), MonicPoly((1, 2, 0, 1))
    builds = []
    build = characters.CharacterTable._build
    monkeypatch.setattr(characters.CharacterTable, "_build",
                        lambda self, n: (builds.append(n), build(self, n)))
    counts = [pi_arith(field, n, (1,), m) for n in range(1, 41)]
    assert builds == [1, 2, 4, 8, 16, 32, 64]
    pi_arith(field, 200, (1,), m)
    assert builds[-1] == 200
    code = primecounts._unit_residue(field, (1,), m)
    assert primecounts._class_counts(field, 40, code, m, None) == counts
