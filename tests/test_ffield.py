"""Finite fields, monic polynomials, and their arithmetic."""

import itertools
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fqtcount import ffield
from fqtcount.errors import NonPrime, ReducibleModulus, ResourceLimit
from fqtcount.primecounts import phi_m
from fqtcount.ffield import (
    MonicPoly,
    build_field,
    enumerate_monic,
    field_for_order,
    poly_from_string,
    poly_to_string,
)
from trial_division import trial_division_factor, trial_division_primes


def test_field_for_order_prime_and_prime_power():
    for q in (2, 3, 5, 7, 4, 8, 9, 25, 27, 81):
        field = field_for_order(q)
        assert field.q == q
    with pytest.raises(NonPrime):
        field_for_order(6)
    with pytest.raises(NonPrime):
        field_for_order(1)


def test_build_field_rejects_bad_moduli():
    with pytest.raises(NonPrime):
        build_field(4)
    # (T+1)^2 = T^2 + 2T + 1 is reducible over F_3
    with pytest.raises(ReducibleModulus):
        build_field(3, 2, (1, 2, 1))
    # wrong degree
    with pytest.raises(ReducibleModulus):
        build_field(3, 2, (1, 1))
    # a valid custom modulus is accepted
    field = build_field(3, 2, (1, 0, 1))  # Y^2 + 1
    assert field.q == 9


def test_default_modulus_is_the_first_irreducible():
    # every p^k <= 4096 with k >= 2: the first monic of degree k in
    # canonical order that sympy finds irreducible over F_p (a zero
    # constant term means the factor Y, so sympy is not asked)
    x = sympy.Symbol("x")
    for p in sympy.primerange(2, 65):
        for k in range(2, 13):
            if p**k > 4096:
                break
            first = next(tail + (1,) for tail in itertools.product(range(p), repeat=k)
                         if tail[0] and sympy.Poly((1,) + tail[::-1], x,
                                                   modulus=p).is_irreducible)
            assert build_field(p, k).modulus == first, (p, k)


def test_field_construction_ignores_the_enumeration_cap(monkeypatch):
    expected = {q: field_for_order(q) for q in (4, 9, 4096)}
    monkeypatch.setenv("FQT_CAP", "1")
    assert {q: field_for_order(q) for q in expected} == expected
    assert ffield.element_mul(expected[9], 3, 3) == 2  # Y^2 = -1 = 2 in F_3[Y]/(Y^2+1)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([2, 3, 4, 5, 9]), st.data())
def test_field_axioms(q, data):
    field = field_for_order(q)
    a = data.draw(st.integers(min_value=0, max_value=q - 1))
    b = data.draw(st.integers(min_value=0, max_value=q - 1))
    c = data.draw(st.integers(min_value=0, max_value=q - 1))
    add, mul = ffield.element_add, ffield.element_mul
    assert add(field, a, b) == add(field, b, a)
    assert mul(field, a, b) == mul(field, b, a)
    assert add(field, a, add(field, b, c)) == add(field, add(field, a, b), c)
    assert mul(field, a, mul(field, b, c)) == mul(field, mul(field, a, b), c)
    assert mul(field, a, add(field, b, c)) == add(
        field, mul(field, a, b), mul(field, a, c)
    )
    assert add(field, a, 0) == a
    assert mul(field, a, 1) == a


def test_element_inverses():
    for q in (3, 4, 9):
        field = field_for_order(q)
        for a in range(1, q):
            inv = ffield.element_inv(field, a)
            assert ffield.element_mul(field, a, inv) == 1


def test_enumerate_monic_counts_and_cap():
    field = field_for_order(3)
    for n in range(4):
        assert len(enumerate_monic(field, n)) == 3**n
    polys = enumerate_monic(field, 2)
    assert len(set(p.coeffs for p in polys)) == 9
    assert all(p.coeffs[-1] == 1 and len(p.coeffs) == 3 for p in polys)
    with pytest.raises(ResourceLimit):
        enumerate_monic(field, 10, cap=100)


def test_poly_string_roundtrip():
    field = field_for_order(3)
    for text, coeffs in [
        ("T^2+2T+1", (1, 2, 1)),
        ("T", (0, 1)),
        ("1", (1,)),
        ("T^3+1", (1, 0, 0, 1)),
    ]:
        f = poly_from_string(field, text)
        assert f.coeffs == coeffs
        assert poly_from_string(field, poly_to_string(f)).coeffs == coeffs


def test_poly_string_negative_coefficients_reduce_mod_p():
    field = field_for_order(5)
    f = poly_from_string(field, "T^2-2T-1")
    assert f.coeffs == (4, 3, 1)


def test_poly_string_non_monic():
    field = field_for_order(5)
    a = poly_from_string(field, "2T+3", monic=False)
    assert a == (3, 2)


def test_poly_string_rejects_garbage():
    field = field_for_order(3)
    for bad in ("", "T^", "5T", "T+T^^2", "x+1"):
        with pytest.raises(ValueError):
            poly_from_string(field, bad)


def test_poly_mod_and_gcd():
    field = field_for_order(3)
    # (T^2+1) mod (T+1): substitute T = -1 -> 1 + 1 = 2
    rem = ffield.poly_mod_general(field, (1, 0, 1), (1, 1))
    assert rem == (2,)
    # gcd((T+1)^2, (T+1)(T+2)) = T+1 up to scaling
    sq = ffield.poly_mul(field, (1, 1), (1, 1))
    mixed = ffield.poly_mul(field, (1, 1), (2, 1))
    g = ffield.poly_gcd(field, sq, mixed)
    assert len(g) == 2
    # zero remainder comes back as the empty tuple
    assert ffield.poly_mod_general(field, (1, 1), g) == ()


def test_monic_poly_validation():
    with pytest.raises(Exception):
        MonicPoly((1, 2))  # leading coefficient not 1
    f = MonicPoly((2, 1))
    assert f.degree == 1


def test_monic_poly_has_slots_and_keeps_its_value_semantics():
    f = MonicPoly((2, 0, 1))
    assert not hasattr(f, "__dict__")
    assert f == MonicPoly((2, 0, 1)) and f != MonicPoly((1, 0, 1))
    assert hash(f) == hash(MonicPoly((2, 0, 1)))
    assert len({f, MonicPoly((2, 0, 1)), MonicPoly((0, 1))}) == 2
    with pytest.raises(AttributeError):
        f.coeffs = (1,)
    for bad, message in (((), "the zero polynomial is not a MonicPoly"),
                         ((1, -1, 1), "coefficients must be nonnegative element codes"),
                         ((1, 1.0), "coefficients must be nonnegative element codes"),
                         ((1, 2), "leading coefficient must be 1")):
        with pytest.raises(ValueError, match=message):
            MonicPoly(bad)


def test_default_cap_env_override(monkeypatch):
    monkeypatch.delenv("FQT_CAP", raising=False)
    assert ffield.default_cap() == ffield.DEFAULT_CAP
    monkeypatch.setenv("FQT_CAP", "12345")
    assert ffield.default_cap() == 12345
    monkeypatch.setenv("FQT_CAP", "zero")
    with pytest.raises(ValueError):
        ffield.default_cap()
    monkeypatch.setenv("FQT_CAP", "-3")
    with pytest.raises(ValueError):
        ffield.default_cap()


# -- scalar arithmetic against the numpy-table formulas -----------------

_ARITH_QS = [2, 3, 4, 5, 7, 8, 9, 25, 27]


def table_mul(field, a, b):
    t = ffield.tables(field)
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = int(t.add[out[i + j], t.mul[ai, bj]])
    return tuple(out)


def table_divmod(field, f, g):
    t = ffield.tables(field)
    f = list(f)
    dg = len(g) - 1
    quot = [0] * max(len(f) - dg, 0)
    while len(f) > dg:
        lead = f[-1]
        pos = len(f) - 1 - dg
        quot[pos] = lead
        if lead:
            neg_lead = int(t.neg[lead])
            for i in range(dg + 1):
                f[pos + i] = int(t.add[f[pos + i], t.mul[neg_lead, g[i]]])
        f.pop()
    while f and f[-1] == 0:
        f.pop()
    return tuple(quot), tuple(f)


def table_monic(field, f):
    t = ffield.tables(field)
    lead_inv = int(t.inv[f[-1]])
    return tuple(int(t.mul[c, lead_inv]) for c in f)


def table_gcd(field, f, g):
    a, b = tuple(f), tuple(g)
    while any(b):
        a, b = b, table_divmod(field, a, table_monic(field, ffield._strip(b)))[1]
    return table_monic(field, a) if any(a) else a


def poly_add(field, a, b):
    n = max(len(a), len(b))
    a, b = a + (0,) * (n - len(a)), b + (0,) * (n - len(b))
    return ffield._strip(tuple(ffield.element_add(field, x, y) for x, y in zip(a, b)))


def all_ints(coeffs):
    return all(type(c) is int for c in coeffs)


def coeff_tuples(q, min_size, max_size):
    return st.lists(st.integers(0, q - 1), min_size=min_size, max_size=max_size).map(tuple)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(_ARITH_QS), st.data())
def test_poly_arithmetic_matches_table_formulas(q, data):
    field = field_for_order(q)
    a = data.draw(coeff_tuples(q, 1, 7))
    b = data.draw(coeff_tuples(q, 1, 7))
    g = data.draw(coeff_tuples(q, 0, 4)) + (1,)
    prod = ffield.poly_mul(field, a, b)
    assert prod == table_mul(field, a, b)
    assert all_ints(prod)
    quot, rem = ffield.poly_divmod(field, a, g)
    assert (quot, rem) == table_divmod(field, a, g)
    assert all_ints(quot) and all_ints(rem)
    assert len(rem) < len(g)
    back = ffield.poly_mul(field, quot, g) if quot else ()
    assert poly_add(field, back, rem) == ffield._strip(a)
    gcd = ffield.poly_gcd(field, a, b)
    assert gcd == table_gcd(field, ffield._strip(a), ffield._strip(b))
    assert all_ints(gcd)
    if gcd:
        assert ffield.poly_mod(field, a, gcd) == ffield.poly_mod(field, b, gcd) == ()


@pytest.mark.parametrize("q", _ARITH_QS)
def test_element_arithmetic_matches_tables(q):
    field = field_for_order(q)
    t = ffield.tables(field)
    for a in range(q):
        assert ffield.element_neg(field, a) == int(t.neg[a])
        if a:
            assert ffield.element_inv(field, a) == int(t.inv[a])
        for b in range(q):
            assert ffield.element_add(field, a, b) == int(t.add[a, b])
            assert ffield.element_mul(field, a, b) == int(t.mul[a, b])
    values = [ffield.element_add(field, q - 1, q - 1), ffield.element_mul(field, q - 1, q - 1),
              ffield.element_neg(field, q - 1), ffield.element_inv(field, q - 1)]
    assert all_ints(values)
    with pytest.raises(ZeroDivisionError):
        ffield.element_inv(field, 0)


@pytest.mark.parametrize("q", [4, 8, 9, 16, 25, 27, 32, 49, 64, 81])
def test_extension_tables_match_the_field_definition(q):
    field = field_for_order(q)
    fp = build_field(field.p)
    t = ffield.tables(field)
    ys = [ffield.coeffs_of_code(fp, c) for c in range(q)]
    mul = np.array([[ffield.code_of(fp, ffield.poly_mod(fp, ffield.poly_mul(fp, a, b), field.modulus))
                     for b in ys] for a in ys])
    add = np.array([[ffield.code_of(fp, poly_add(fp, a, b)) for b in ys] for a in ys])
    assert np.array_equal(t.mul, mul)
    assert np.array_equal(t.add, add)
    codes = np.arange(q)
    assert (t.add[codes, t.neg] == 0).all()
    assert (t.mul[codes[1:], t.inv[1:]] == 1).all()
    assert np.flatnonzero(t.is_square).tolist() == sorted(set(mul.diagonal()[1:].tolist()))


def test_poly_gcd_ignores_trailing_zeros():
    field = field_for_order(3)
    assert ffield.poly_gcd(field, (0,), (1, 0)) == (1,)
    assert ffield.poly_gcd(field, (2, 2, 0), (0, 1, 1)) == (1, 1)
    assert ffield.poly_gcd(field, (0,), (0, 0)) == ()


def test_prime_field_arithmetic_builds_no_tables():
    field = build_field(4093)
    ffield._TABLE_CACHE.pop(field, None)
    f = poly_from_string(field, "T^3-2T+4000")
    assert ffield.poly_mul(field, f.coeffs, f.coeffs)[0] == 4000 * 4000 % 4093
    assert ffield.factor(field, MonicPoly((4092, 0, 1))).factors[0][0].coeffs == (1, 1)
    assert ffield.poly_gcd(field, (1, 2), (2, 4)) == (ffield.element_mul(field, 1, 2047), 1)
    assert field not in ffield._TABLE_CACHE


@pytest.mark.parametrize("q", [3, 5, 7, 9, 25])
def test_chi2_matches_brute_force_squares(q):
    field = field_for_order(q)
    squares = {ffield.element_mul(field, x, x) for x in range(1, q)}
    for c0 in range(q):
        expected = 0 if c0 == 0 else (1 if c0 in squares else -1)
        assert ffield.chi2(field, MonicPoly((c0, 1))) == expected
        assert ffield.chi2(field, MonicPoly((c0, q - 1, 1))) == expected
    mask = ffield.square_mask(field)
    assert [c for c in range(q) if mask[c]] == sorted(squares)


def test_chi2_prime_field_stays_small():
    import tracemalloc

    field = build_field(4093)
    ffield._TABLE_CACHE.pop(field, None)
    tracemalloc.start()
    try:
        values = [ffield.chi2(field, MonicPoly((c0, 1))) for c0 in (0, 1, 2, 4092)]
        mask = ffield.square_mask(field)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20
    # 4093 = 5 mod 8, so 2 is a non-residue; -1 is a residue as 4093 = 1 mod 4
    assert values == [0, 1, -1, 1]
    assert mask.sum() == 4092 // 2
    assert field not in ffield._TABLE_CACHE


# -- factoring against the trial-division reference ---------------------

# (q, n): every monic polynomial of degree 1..n is factored exhaustively
_FACTOR_GRID = [(2, 10), (3, 7), (4, 6), (5, 6), (7, 4), (8, 4), (9, 4), (25, 2), (27, 2)]


@pytest.mark.parametrize("q, max_deg", _FACTOR_GRID)
def test_factor_matches_trial_division(q, max_deg):
    field = field_for_order(q)
    for n in range(1, max_deg + 1):
        for f in enumerate_monic(field, n):
            expected = trial_division_factor(field, f)
            assert ffield.factor(field, f) == expected
            assert expected.expand(field) == f


@pytest.mark.parametrize("q", [7, 8, 9])
def test_factor_matches_trial_division_on_samples_of_degrees_5_and_6(q):
    # all of degree 6 is 7^6 to 9^6 polynomials, too many for the reference
    field = field_for_order(q)
    rng = random.Random(q)
    for n in (5, 6):
        for _ in range(400):
            f = MonicPoly(tuple(rng.randrange(q) for _ in range(n)) + (1,))
            assert ffield.factor(field, f) == trial_division_factor(field, f)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 101])
def test_factor_matches_sympy_over_prime_fields(p):
    # an independent reference: sympy's factor_list over GF(p), test-only
    field, rng = field_for_order(p), random.Random(p)
    x = sympy.Symbol("x")
    for _ in range(40):
        n = rng.randint(1, 20)
        f = MonicPoly(tuple(rng.randrange(p) for _ in range(n)) + (1,))
        _, pairs = sympy.Poly(list(reversed(f.coeffs)), x, modulus=p).factor_list()
        expected = sorted((tuple(int(c) % p for c in reversed(g.all_coeffs())), e)
                          for g, e in pairs)
        got = ffield.factor(field, f).factors
        assert sorted((P.coeffs, e) for P, e in got) == expected, f
        assert [P.degree for P, _ in got] == sorted(P.degree for P, _ in got)


def test_factor_has_no_size_limit():
    # degree 8 over F_27 needed a remainder plan of 27 x 4977288 digits,
    # over its limit of 10^8, so factoring and phi_m raised ResourceLimit
    field = field_for_order(27)
    P, Q = trial_division_primes(field, 1)[3], trial_division_primes(field, 2)[0]
    coeffs = (1,)
    for prime in (P, P, Q, Q, Q):
        coeffs = ffield.poly_mul(field, coeffs, prime.coeffs)
    fac = ffield.factor(field, MonicPoly(coeffs))
    assert fac.factors == ((P, 2), (Q, 3))
    assert fac.expand(field) == MonicPoly(coeffs)
    m = poly_from_string(field, "T^8+T+2")
    fac = ffield.factor(field, m)
    assert fac.expand(field) == m
    assert [P.degree for P, _ in fac.factors] == [1, 1, 1, 5]
    assert phi_m(field, m) == 26**3 * (27**5 - 1)


def _factor_degree_bound(q):
    # keep the primes of degree <= n/2 that the reference tries small
    d = 1
    while q ** (d + 1) <= 800:
        d += 1
    return min(2 * d, 10)


@st.composite
def _structured_poly(draw, field):
    """A product of prime powers, such as P^4 or P^2 Q^3, of degree >= 1."""
    bound = _factor_degree_bound(field.q)
    coeffs, deg = (1,), 0
    for _ in range(draw(st.integers(1, 3))):
        d = draw(st.integers(1, max(1, min(3, (bound - deg) // 2))))
        if deg + d > bound:
            break
        primes = trial_division_primes(field, d)
        prime = primes[draw(st.integers(0, len(primes) - 1))]
        e = draw(st.integers(1, max(1, (bound - deg) // d)))
        for _ in range(e):
            coeffs = ffield.poly_mul(field, coeffs, prime.coeffs)
        deg += e * d
    if deg == 0:
        coeffs = draw(coeff_tuples(field.q, 1, 1)) + (1,)
    return MonicPoly(coeffs)


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(_ARITH_QS), st.data())
def test_factor_of_repeated_prime_powers_matches_trial_division(q, data):
    field = field_for_order(q)
    f = data.draw(_structured_poly(field))
    expected = trial_division_factor(field, f)
    assert ffield.factor(field, f) == expected
    # its neighbours with other constant terms
    for c in range(min(q, 4)):
        g = MonicPoly((c,) + f.coeffs[1:])
        assert ffield.factor(field, g) == trial_division_factor(field, g)


def test_factor_finds_high_multiplicities():
    for q in _ARITH_QS:
        field = field_for_order(q)
        P, R = trial_division_primes(field, 1)[:2]
        Q = trial_division_primes(field, 2)[0]
        cases = [((P, 4),), ((P, 2), (Q, 1)), ((P, 2), (Q, 3)), ((P, 1), (R, 1)),
                 ((Q, 1),), ((P, 1),)]
        for case in cases:
            if sum(prime.degree * e for prime, e in case) > _factor_degree_bound(q):
                continue
            coeffs = (1,)
            for prime, e in case:
                for _ in range(e):
                    coeffs = ffield.poly_mul(field, coeffs, prime.coeffs)
            got = ffield.factor(field, MonicPoly(coeffs))
            assert got.factors == case


def test_factor_rejects_bad_input():
    field = field_for_order(3)
    with pytest.raises(ValueError):
        ffield.factor(field, MonicPoly((3, 1)))  # coefficient out of range
    with pytest.raises(ValueError):
        ffield.factor(field, MonicPoly((1,)))  # degree 0


def test_first_large_prime_field_factor_is_quick_and_small():
    import os
    import subprocess
    import sys

    # each measurement is of a first call in a fresh interpreter; tracemalloc
    # slows allocation several times over, so time and memory are taken apart
    code = (
        "import sys, time, tracemalloc\n"
        "from fqtcount import ffield\n"
        "from fqtcount.ffield import MonicPoly, build_field\n"
        "field = build_field(4093)\n"
        "if sys.argv[1] == 'memory':\n"
        "    tracemalloc.start()\n"
        "t = time.perf_counter()\n"
        "fac = ffield.factor(field, MonicPoly((4092, 0, 1)))\n"
        "elapsed = time.perf_counter() - t\n"
        "peak = tracemalloc.get_traced_memory()[1]\n"
        "print([(P.coeffs, e) for P, e in fac.factors], elapsed, peak)\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    runs = {}
    for mode in ("time", "memory"):
        out = subprocess.run([sys.executable, "-c", code, mode], env=env, capture_output=True,
                             text=True, check=True, timeout=60).stdout
        runs[mode] = out.rsplit(" ", 2)
    for factors, _, _ in runs.values():
        assert factors == "[((1, 1), 1), ((4092, 1), 1)]"  # (T + 1)(T + 4092)
    assert float(runs["time"][1]) < 0.25
    assert int(runs["memory"][2]) < 10 * 2**20


# -- the batched residue map against scalar division ----------------------


@pytest.mark.parametrize("q", [2, 3, 4, 9])
@pytest.mark.parametrize("chunk", [None, 50])
def test_residues_match_scalar_division(monkeypatch, q, chunk):
    # r != 1 and a reducible modulus; n + len(r) both below deg modulus,
    # where codes are sized by the product's degree, and past it.  With
    # _CHUNK_ENTRIES = 50 a chunk holds 50 // (matrix rows) codes, so
    # every call crosses chunk boundaries.
    if chunk is not None:
        monkeypatch.setattr(ffield, "_CHUNK_ENTRIES", chunk)
    field = field_for_order(q)
    rng = random.Random(q)
    for modulus in ((1, 1, 0, 1), (0, 0, 1, 1), (1, 0, 0, 0, 0, 0, 1)):
        for n in (1, 2, 3):
            for r in ((1,), (0, 1), (q - 1, 0, 1)):
                codes = np.array(rng.sample(range(q ** (n + 1)), min(q ** (n + 1), 200)))
                expected = [ffield.code_of(field, ffield.poly_mod_general(
                    field, ffield.poly_mul(field, ffield.coeffs_of_code(field, c), r), modulus))
                    for c in codes.tolist()]
                got = ffield._residues(field, modulus, codes, n, r)
                assert got.tolist() == expected, (modulus, n, r)
