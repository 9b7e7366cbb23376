"""Truncated power series with exact rational coefficients."""

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from fqtcount import cli, series
from fqtcount.errors import BadConstantTerm, NotInvertible, TruncationMismatch
from fqtcount.families import (
    FamilySpec,
    canonical_family,
    count_landau_poly_in_q,
    psi_table,
    psi_value,
)
from fqtcount.primecounts import LPolynomial
from fqtcount.qpoly import QPoly
from fqtcount.series import (
    GeneratorCounts,
    TruncatedSeries,
    _contract_mod,
    _crt_primes,
    _exact_quotient,
    _exp_integral,
    _exp_psi_over_n,
    _limbs,
    _mobius_sums,
    _mobius_table,
    _residue_rows,
    _size_bounds,
    g_from_psi,
    product_form,
    psi_from_g,
    series_exp,
    series_log,
    series_mul,
    squarefree_product_form,
)
from closed_forms import e_n_poly
from power2 import power2_transform, verify_power2_product
from series_powers import binomial_series, series_pow
from stepwise_arithmetic import mobius_weighted_sums, sieved_mobius

x = sympy.Symbol("x")


def from_sympy(expr, order):
    poly = sympy.series(expr, x, 0, order + 1).removeO()
    coeffs = [Fraction(str(poly.coeff(x, i))) for i in range(order + 1)]
    return TruncatedSeries.from_coeffs(coeffs)


def test_basic_ring_ops():
    a = TruncatedSeries.from_coeffs([1, 2, 3])
    b = TruncatedSeries.from_coeffs([0, 1, 1])
    assert (a + b).coeffs == (1, 3, 4)
    assert (a - b).coeffs == (1, 1, 2)
    assert (a * b).coeffs == (0, 1, 3)
    assert a.scale(Fraction(1, 2)).coeffs == (Fraction(1, 2), 1, Fraction(3, 2))
    assert a.coefficient(2) == 3
    assert a.truncate(1).order == 1


def test_order_mismatch_raises():
    a = TruncatedSeries.from_coeffs([1, 2])
    b = TruncatedSeries.from_coeffs([1, 2, 3])
    with pytest.raises(TruncationMismatch):
        a + b


def test_compose_xpow_same_order():
    a = TruncatedSeries.from_coeffs([1, 2, 3, 4, 5])
    got = a.compose_xpow(2)
    assert got.order == a.order
    assert got.coeffs == (1, 0, 2, 0, 3)


def test_exp_log_against_sympy():
    a = TruncatedSeries.from_coeffs([0, 1, Fraction(-1, 2), Fraction(1, 3), 0, 2])
    expected = from_sympy(
        sympy.exp(x - x**2 / 2 + x**3 / 3 + 2 * x**5), a.order
    )
    assert series_exp(a).coeffs == expected.coeffs
    b = TruncatedSeries.from_coeffs([1, 1, 0, Fraction(2, 7)])
    expected = from_sympy(sympy.log(1 + x + sympy.Rational(2, 7) * x**3), b.order)
    assert series_log(b).coeffs == expected.coeffs


def test_exp_log_roundtrip():
    a = TruncatedSeries.from_coeffs([0, 3, -1, Fraction(5, 2), 0, 0, 1, -4])
    assert series_log(series_exp(a)).coeffs == a.coeffs
    b = TruncatedSeries.from_coeffs([1, -2, Fraction(1, 3), 4, 0, 1])
    assert series_exp(series_log(b)).coeffs == b.coeffs


def test_constant_term_guards():
    with pytest.raises(BadConstantTerm):
        series_exp(TruncatedSeries.from_coeffs([1, 1]))
    with pytest.raises(BadConstantTerm):
        series_log(TruncatedSeries.from_coeffs([0, 1]))


def test_series_pow_binomial():
    base = TruncatedSeries.from_coeffs([1, 1, 0, 0, 0])
    got = series_pow(base, Fraction(-1, 2))
    expected = from_sympy((1 + x) ** sympy.Rational(-1, 2), 4)
    assert got.coeffs == expected.coeffs


def test_binomial_series_matches_general_expansion():
    # (1 - q x)^(-c1) has coefficients binom(n + c1 - 1, n) q^n
    got = binomial_series(3, Fraction(1, 2), 6)
    expected = from_sympy((1 - 3 * x) ** sympy.Rational(-1, 2), 6)
    assert got.coeffs == expected.coeffs


def test_product_form_small_case_by_hand():
    # two generators of degree 1, one of degree 2:
    # (1-x)^-2 (1-x^2)^-1 = 1 + 2x + 4x^2 + 6x^3 + ...
    F = product_form({1: 2, 2: 1}, 3)
    expected = from_sympy((1 - x) ** -2 * (1 - x**2) ** -1, 3)
    assert F.coeffs == expected.coeffs


def test_squarefree_product_form_small_case():
    F = squarefree_product_form({1: 3, 2: 2}, 3)
    expected = from_sympy((1 + x) ** 3 * (1 + x**2) ** 2, 3)
    assert F.coeffs == expected.coeffs


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=9), min_size=1, max_size=10)
)
def test_moebius_roundtrip(counts):
    g = {n + 1: c for n, c in enumerate(counts)}
    N = len(counts)
    psi = psi_from_g(g, N)
    back = g_from_psi(psi, N)
    assert all(back.count(n) == g.get(n, 0) for n in range(1, N + 1))


def test_psi_from_g_weighted_divisor_sum():
    g = {1: 2, 2: 1, 3: 5}
    psi = psi_from_g(g, 6)
    assert psi[1] == 2
    assert psi[2] == 2 + 2
    assert psi[3] == 2 + 15
    assert psi[6] == 2 + 2 + 15 + 0


def test_generator_counts_validation():
    with pytest.raises(Exception):
        GeneratorCounts({0: 1}, 3)
    with pytest.raises(Exception):
        GeneratorCounts({1: -1}, 3)


def test_power2_transform():
    a = {1: Fraction(1), 2: Fraction(5), 3: Fraction(2), 4: Fraction(7)}
    b = power2_transform(a, 4)
    assert b == {1: 1, 2: 4, 3: 2, 4: 2}


def test_verify_power2_product_positive_and_negative():
    # A(x) = prod_k (1-x^{2^k})^{-2^{-k}} against B(x) = (1-x)^{-1}
    N = 16
    B = series_pow(
        TruncatedSeries.from_coeffs([1, -1] + [0] * (N - 1)), Fraction(-1)
    )
    log_a = TruncatedSeries.from_coeffs(
        [0]
        + [
            Fraction(
                sum(1 for k in range(N.bit_length()) if n % 2**k == 0), n
            )
            for n in range(1, N + 1)
        ]
    )
    A = series_exp(log_a)
    assert verify_power2_product(A, B, N)
    A_bad = A + TruncatedSeries.from_coeffs([0] * N + [1])
    assert not verify_power2_product(A_bad, B, N)


def test_series_mul_matches_operator():
    a = TruncatedSeries.from_coeffs([1, 2, 3, 4])
    b = TruncatedSeries.from_coeffs([5, 6, 7, 8])
    assert series_mul(a, b).coeffs == (a * b).coeffs


# -- the multimodular exp kernel against a schoolbook reference ------------


def schoolbook_exp(psi, N):
    """n f_n = sum_j psi_j f_{n-j} in exact big integers (Fraction if n does not divide)."""
    f = [1] + [0] * N
    for m in range(1, N + 1):
        acc = sum(psi.get(j, 0) * f[m - j] for j in range(1, m + 1))
        f[m] = acc // m if acc % m == 0 else Fraction(acc, m)
    return tuple(f)


def reference_psi(counts, N, alternating=False):
    """psi(n) = sum_{d | n} d g(d), signed (-1)^(n/d + 1) for the squarefree product."""
    return {
        n: sum((d if not alternating or (n // d) % 2 else -d) * counts.get(d, 0)
               for d in sympy.divisors(n))
        for n in range(1, N + 1)
    }


def _family_specs():
    L = LPolynomial(5, (1, 2, 5))
    for name in ("landau", "s1", "s2", "s3"):
        yield FamilySpec(canonical_family(name), q=3)
    yield FamilySpec(canonical_family("landau"), q=101)
    yield FamilySpec(canonical_family("s3"), q=5)
    yield FamilySpec(canonical_family("arith"), q=3, m=(1, 1), a=(1,))
    yield FamilySpec(canonical_family("divisors"), l_poly=L, r=2)
    yield FamilySpec(canonical_family("divisors-r-ell-K"), l_poly=L, r=2, ell=2)


@pytest.mark.parametrize("spec", list(_family_specs()), ids=lambda s: s.family)
def test_kernel_matches_schoolbook_for_every_family(spec):
    N = 300
    psi = {n: psi_value(spec, n).numerator for n in range(1, N + 1)}
    got = _exp_psi_over_n(psi, N).coeffs
    assert got == schoolbook_exp(psi, N)
    assert all(type(c) is int for c in got)
    # the proved size bound really bounds every coefficient
    bits = _size_bounds([0] + [psi[n] for n in range(1, N + 1)])
    assert all(abs(c) <= 2 ** int(b) for c, b in zip(got, bits))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=40),
    st.integers(min_value=0, max_value=60),
)
def test_product_forms_match_schoolbook(counts, N):
    g = GeneratorCounts({n + 1: c for n, c in enumerate(counts) if c}, len(counts))
    assert product_form(g, N).coeffs == schoolbook_exp(reference_psi(g.g, N), N)
    assert squarefree_product_form(g, N).coeffs == schoolbook_exp(
        reference_psi(g.g, N, alternating=True), N
    )


def test_kernel_signed_coefficients():
    # psi = -1 everywhere: exp(-sum x^n/n) = 1 - x
    N = 40
    assert _exp_psi_over_n({n: -1 for n in range(1, N + 1)}, N).coeffs == (1, -1) + (0,) * (N - 1)
    # (1+x)^3 (1+x^2)^2 has mixed-sign log-coefficients and a finite expansion
    F = squarefree_product_form({1: 3, 2: 2}, 12)
    assert F.coeffs == (1, 3, 5, 7, 7, 5, 3, 1) + (0,) * 5


def test_kernel_refuses_a_non_integral_psi():
    # psi_2 = 1 alone: exp(x^2/2) = sum x^(2k) / (2^k k!), not integral
    with pytest.raises(NotInvertible, match="n=2"):
        _exp_psi_over_n({2: 1}, 9)
    assert _exp_psi_over_n({2: 1}, 1).coeffs == (1, 0)  # integral below n = 2
    with pytest.raises(NotInvertible):
        _exp_psi_over_n({1: Fraction(1, 2)}, 3)
    # the exact rational exp remains for such series
    F = series_exp(TruncatedSeries.from_coeffs([0, 0, Fraction(1, 2)], 9))
    assert F.coeffs == from_sympy(sympy.exp(x**2 / 2), 9).coeffs


def test_kernel_small_orders():
    assert _exp_psi_over_n({}, 0).coeffs == (1,)
    assert _exp_psi_over_n({1: 7}, 0).coeffs == (1,)
    assert _exp_psi_over_n({1: 7}, 1).coeffs == (1, 7)
    assert _exp_psi_over_n({1: -7}, 1).coeffs == (1, -7)
    assert _exp_psi_over_n({1: 0}, 1).coeffs == (1, 0)
    assert product_form({}, 3).coeffs == (1, 0, 0, 0)


def _primes_for(v):
    return len(_crt_primes(int(_size_bounds([0, v]).max()) + 1))


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_kernel_at_a_prime_count_boundary(k):
    primes = _crt_primes(20 * (k + 2))
    modulus = math.prod(primes[:k])
    # the largest value the bound lets k primes carry, and one past it
    lo, hi = 1, modulus
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if _primes_for(mid) <= k else (lo, mid)
    assert _primes_for(lo) == k and _primes_for(lo + 1) == k + 1
    assert 2 * lo < modulus < 2**6 * lo  # exact, and the bound wastes few bits
    # values at the edge of what k primes represent in (-M/2, M/2)
    top = 2 ** (modulus.bit_length() - 1)
    edges = (lo, lo + 1, modulus // 2, modulus // 2 + 1, top - 1, top,
             modulus - 1, modulus, modulus + 1)
    for v in edges + tuple(-e for e in edges):
        # psi = v everywhere: (1 - x)^(-v); at N=1 the largest coefficient is v
        assert _exp_psi_over_n({1: v}, 1).coeffs == (1, v)
        psi = {n: v for n in range(1, 4)}
        assert _exp_psi_over_n(psi, 3).coeffs == schoolbook_exp(psi, 3)


def test_kernel_order_range_is_asserted():
    with pytest.raises(ValueError, match="2\\^19"):
        _exp_integral([0] * (2**19 + 1))


def test_mobius_table_matches_sympy():
    assert _mobius_table(300)[1:] == [int(sympy.mobius(n)) for n in range(1, 301)]


@pytest.mark.parametrize("N", [0, 1, 2, 3, 12, 2000])
def test_mobius_table_matches_the_sieve(N):
    assert _mobius_table(N) == sieved_mobius(N)


# the psi lists of the exact-tables workload's count tables
_EXACT_TABLE_PSI = [
    (FamilySpec(canonical_family("landau"), q=3), 1500),
    (FamilySpec(canonical_family("landau"), q=101), 700),
    (FamilySpec(canonical_family("s1"), q=3), 800),
    (FamilySpec(canonical_family("s2"), q=3), 800),
    (FamilySpec(canonical_family("s3"), q=5), 600),
    (FamilySpec(canonical_family("divisors"), l_poly=LPolynomial(5, (1, 2, 5)), r=2), 400),
]


@pytest.mark.parametrize("spec, N", _EXACT_TABLE_PSI, ids=lambda x: getattr(x, "family", x))
def test_mobius_pass_matches_the_weighted_sums_on_exact_tables(spec, N):
    psi = psi_table(spec, N)
    sums = _mobius_sums(psi)
    assert sums == mobius_weighted_sums(dict(enumerate(psi)), N)
    assert all(total % n == 0 for n, total in enumerate(sums) if n)  # integral g


def test_mobius_pass_on_signed_and_short_lists():
    rng = random.Random(29)
    for N in range(0, 80, 3):
        values = [0] + [rng.randint(-10**30, 10**30) for _ in range(N)]
        before = list(values)
        assert _mobius_sums(values) == mobius_weighted_sums(dict(enumerate(values)), N)
        assert values == before  # the argument is left as it was
    assert _mobius_sums([0]) == [0]
    assert _mobius_sums([0, 5]) == [0, 5]
    assert _mobius_sums([0, 5, 7]) == [0, 5, 2]


def test_g_from_psi_messages():
    with pytest.raises(NotInvertible, match="does not invert to integers at n=2"):
        g_from_psi({1: 1, 2: 0}, 2)
    with pytest.raises(NotInvertible, match="negative generator count at n=2"):
        g_from_psi({1: 1, 2: -1}, 2)


def test_crt_primes_match_the_prevprime_chain():
    primes = _crt_primes(20000)
    chain, p = [], 2**26
    for _ in primes:
        p = sympy.prevprime(p)
        chain.append(p)
    assert primes == chain
    assert math.prod(primes[:-1]).bit_length() <= 20000 < math.prod(primes).bit_length()
    # the chain runs on past the first sieve window, [2^26 - 8192, 2^26)
    assert primes[-1] < 2**26 - 8192 < primes[0]


def test_crt_primes_range_is_asserted():
    with pytest.raises(ValueError, match="2\\^25 bits"):
        _crt_primes(2**25)


def test_contract_mod_blocks_stay_exact():
    # all residues p - 1: each product is within 2^40 of 2^52, so a block
    # of 2^12 products, or two unreduced blocks of 2^11, would pass 2^63
    p = np.array(_crt_primes(60), dtype=np.int64)
    width = 2 * 2**11 + 3
    top = np.repeat((p - 1)[:, None], width, axis=1)
    assert _contract_mod("kj,kj->k", top, top, p).tolist() == [width % q for q in p.tolist()]
    rng = np.random.default_rng(0)
    a, b = (rng.integers(0, p[:, None], size=(len(p), width)) for _ in range(2))
    assert _contract_mod("kj,kj->k", a, b, p).tolist() == [
        sum(x * y for x, y in zip(ra, rb)) % q
        for ra, rb, q in zip(a.tolist(), b.tolist(), p.tolist())
    ]
    # the prefix sums read windows of one row: window[k, t] = a[k, t:t + width - 3]
    window = series._windows(a, width - 3)
    assert window.shape == (len(p), 4, width - 3)
    got = _contract_mod("ktj,kj->kt", window, b[:, :width - 3], p[:, None])
    assert got.tolist() == [
        [sum(x * y for x, y in zip(ra[t:t + width - 3], rb)) % q for t in range(4)]
        for ra, rb, q in zip(a.tolist(), b.tolist(), p.tolist())
    ]
    top_window = series._windows(top, width - 3)
    assert _contract_mod("ktj,kj->kt", top_window, top[:, 3:], p[:, None]).tolist() == [
        [(width - 3) % q] * 4 for q in p.tolist()]


def test_exp_integral_crosses_an_inner_block():
    # 1 / ((1 - x)(1 - x^2)): N > 2^11, so the late inner sums take two blocks
    N = 2100
    psi = psi_from_g({1: 1, 2: 1}, N)
    got = product_form({1: 1, 2: 1}, N).coeffs
    assert got == schoolbook_exp(psi, N)
    assert got == tuple(n // 2 + 1 for n in range(N + 1))


def test_exp_of_huge_values_crosses_prime_groups_and_windows():
    v = 3**37855  # 59 999 bits: more than 2^11 primes, in several sieve windows
    assert _exp_psi_over_n({1: v}, 1).coeffs == (1, v)
    assert len(_crt_primes(v.bit_length() + 1)) > 2**11
    psi = {n: v for n in range(1, 4)}  # (1 - x)^(-v)
    assert _exp_psi_over_n(psi, 3).coeffs == (
        1, v, v * (v + 1) // 2, v * (v + 1) * (v + 2) // 6)


@pytest.mark.parametrize("width", [63, 64, 65, 2 * 64 + 3])
def test_residue_rows_are_exact_at_the_block_edges(width):
    # every limb 0xFFFF: each block product is as large as a block of 64 limbs allows
    primes = _crt_primes(60000)
    primes = primes[:3] + primes[-3:]
    radix = np.array([[pow(2, 16 * l, q) for q in primes] for l in range(3 * 64)], dtype=np.float64)
    top = 2 ** (16 * width) - 1
    values = [top, -top, top - 1, 1 - top, top >> 16, -(top >> 16), 1, -1, 0]
    got = _residue_rows(_limbs(values), np.array(primes, dtype=np.float64), radix)
    assert got.tolist() == [[v % q for q in primes] for v in values]


# -- batches of primes joining the recurrence at later chunks ---------------


@pytest.fixture(params=[2, 3], ids=lambda g: f"group{g}")
def join_points(request, monkeypatch):
    """Batches of 2 or 3 primes and chunks of 8 values, so that many batches
    join at different chunks; the list collects the m each batch joins at,
    the number of coefficients that seed it."""
    monkeypatch.setattr(series, "_GROUP", request.param)
    monkeypatch.setattr(series, "_CHUNK", 8)
    joins = []
    seed_rows = series._seed_rows

    def recorded(known, p):
        seeds = seed_rows(known, p)
        joins.append(seeds.shape[1])
        return seeds

    monkeypatch.setattr(series, "_seed_rows", recorded)
    return joins


@pytest.mark.parametrize("spec", list(_family_specs()), ids=lambda s: s.family)
def test_joined_groups_match_schoolbook_for_every_family(spec, join_points):
    N = 300
    psi = {n: psi_value(spec, n).numerator for n in range(1, N + 1)}
    assert _exp_psi_over_n(psi, N).coeffs == schoolbook_exp(psi, N)
    assert len(set(join_points)) > 3 and join_points == sorted(join_points)


def test_joined_groups_with_signed_psi(join_points):
    assert _exp_psi_over_n({n: -1 for n in range(1, 41)}, 40).coeffs == (1, -1) + (0,) * 39
    assert squarefree_product_form({1: 3, 2: 2}, 12).coeffs == (1, 3, 5, 7, 7, 5, 3, 1) + (0,) * 5
    v, N = 10**30, 60
    for psi, expected in (
        ({n: -v for n in range(1, N + 1)}, [(-1) ** m * math.comb(v, m) for m in range(N + 1)]),
        ({n: (-1) ** n * v for n in range(1, N + 1)},
         [(-1) ** m * math.comb(v + m - 1, m) for m in range(N + 1)]),
    ):
        assert _exp_psi_over_n(psi, N).coeffs == tuple(expected) == schoolbook_exp(psi, N)
    assert len(set(join_points)) > 3


def test_joined_groups_with_zero_runs(join_points):
    # psi_16k = 16 psi_k stretches exp(sum psi_k y^k / k) to y = x^16: runs
    # of 15 zero coefficients, whose chunks need fewer primes than the last
    spec, K = FamilySpec(canonical_family("s1"), q=27), 25
    small = {k: psi_value(spec, k).numerator for k in range(1, K + 1)}
    psi = {16 * k: 16 * v for k, v in small.items()}
    bits = _size_bounds([0] + [psi.get(n, 0) for n in range(1, 16 * K + 1)])
    assert bits[16 * K - 8] == 0 < bits[16 * K - 16]  # not monotone
    got = _exp_psi_over_n(psi, 16 * K).coeffs
    assert got == schoolbook_exp(psi, 16 * K)
    assert len(set(join_points)) > 3 and join_points == sorted(join_points)
    assert got[::16] == _exp_psi_over_n(small, K).coeffs


def test_joined_groups_at_orders_0_and_1(join_points):
    v = 3**200
    assert _exp_psi_over_n({}, 0).coeffs == (1,)
    assert _exp_psi_over_n({1: v}, 0).coeffs == (1,)
    assert join_points == []
    assert _exp_psi_over_n({1: v}, 1).coeffs == (1, v)
    assert _exp_psi_over_n({1: -v}, 1).coeffs == (1, -v)
    assert len(join_points) > 4 and set(join_points) == {1}


def test_last_group_joins_at_the_last_chunk(join_points):
    # 1 / ((1 - x) (1 - x^40)^v): f_m = 1 below 40, so only the last chunk needs many primes
    v, N = 10**100, 40
    assert product_form({1: 1, N: v}, N).coeffs == (1,) * N + (1 + v,)
    assert join_points[0] == 1 and join_points[-1] == N - 7 and len(join_points) > 3


def test_staggered_joins_past_an_inner_block(join_points):
    # 1 / ((1 - x) (1 - x^700)^v): f_m = sum_{k <= m/700} binom(v + k - 1, k), so
    # batches join near 700, 1400 and 2100, and the late prefix sums take two
    # blocks of 2^11 products
    v, N = 10**30, 2100
    expected = [sum(math.comb(v + k - 1, k) for k in range(m // 700 + 1)) for m in range(N + 1)]
    assert product_form({1: 1, 700: v}, N).coeffs == tuple(expected)
    assert join_points == sorted(join_points) and join_points[0] == 1
    assert sum(1 for s in set(join_points) if s > 2**11) and len(set(join_points)) > 3


# -- size bounds, the audit residue and the engine's memory -----------------


def step_size_bounds(psi):
    """b_m = max_j (l_j + b_(m-j)) one m at a time, in the units of _size_bounds."""
    N = len(psi) - 1
    logs = [None] + [math.ceil(series._LOG_UNIT * math.log2(abs(v))) + 1 if v else None
                     for v in psi[1:]]
    b = [0] + [None] * N
    for m in range(1, N + 1):
        terms = [logs[j] + b[m - j] for j in range(1, m + 1)
                 if logs[j] is not None and b[m - j] is not None]
        b[m] = max(terms, default=None)
    return [max(-(-v // series._LOG_UNIT), 0) if v is not None else 0 for v in b]


def closure_size_bounds(psi):
    """_size_bounds with star[t, u] formed by the in-chunk closure, each row
    from the rows below it, instead of as the Toeplitz matrix of b_0..b_(C-1)."""
    N = len(psi) - 1
    NO = series._NO_TERM
    logs = np.array([NO] + [math.ceil(series._LOG_UNIT * math.log2(abs(v))) + 1 if v else NO
                            for v in psi[1:]], dtype=np.int64)
    C = min(series._CHUNK, N + 1)
    star = np.full((C, C), NO, dtype=np.int64)
    np.fill_diagonal(star, 0)
    for t in range(1, C):
        star[t] = np.maximum(star[t], (logs[t:0:-1, None] + star[:t]).max(axis=0))
    b = np.full(N + 1, NO, dtype=np.int64)
    b[0] = 0
    for s in range(1, N + 1, series._CHUNK):
        e = min(s + series._CHUNK, N + 1)
        window = series._windows(logs[1:e], s)
        pre = np.concatenate([(window[lo:lo + series._GROUP] + b[s - 1::-1]).max(axis=1)
                              for lo in range(0, e - s, series._GROUP)])
        b[s:e] = np.maximum((star[:e - s, :e - s] + pre).max(axis=1), NO)
    return np.maximum(-(-b // series._LOG_UNIT), 0)


@pytest.mark.parametrize("chunk", [8, 64])
def test_toeplitz_size_bounds_match_the_closure(chunk, monkeypatch):
    monkeypatch.setattr(series, "_CHUNK", chunk)
    # the psi lists of every kernel family, and random lists with zeros,
    # signs and 30-digit values, at lengths around one and two chunks
    lists = [[0] + [psi_value(spec, n).numerator for n in range(1, N + 1)]
             for spec in _family_specs() for N in (0, 1, 63, 64, 65, 150)]
    rng = random.Random(26)
    for _ in range(60):
        N = rng.choice([rng.randint(0, 70), rng.randint(100, 300)])
        lists.append([0] + [rng.choice([0, 0, 1, -1, rng.randint(-10**30, 10**30),
                                        rng.randint(-10**9, 10**9)]) for _ in range(N)])
    for psi in lists:
        assert _size_bounds(psi).tolist() == closure_size_bounds(psi).tolist()


@pytest.mark.parametrize("chunk", [8, 64])
def test_blocked_size_bounds_match_the_step_recurrence(chunk, monkeypatch):
    monkeypatch.setattr(series, "_CHUNK", chunk)
    rng = random.Random(chunk)
    for _ in range(40):
        N = rng.randint(0, 200)
        psi = [0] + [rng.choice([0, 0, 1, -1, rng.randint(-10**9, 10**9), 3**rng.randint(0, 300)])
                     for _ in range(N)]
        assert _size_bounds(psi).tolist() == step_size_bounds(psi)


def _landau_psi(q, N):
    return psi_table(FamilySpec(canonical_family("landau"), q=q), N)


def test_audit_residue_catches_a_short_size_bound(monkeypatch, capsys):
    # one prime per batch, and the last chunk's bound halved: that chunk is
    # rebuilt from too few primes, and the audit prime sees it
    monkeypatch.setattr(series, "_GROUP", 1)
    bounds = series._size_bounds

    def short(psi):
        bits = bounds(psi)
        last = (len(psi) - 2) // series._CHUNK * series._CHUNK + 1
        bits[last:] //= 2
        return bits

    monkeypatch.setattr(series, "_size_bounds", short)
    with pytest.raises(TruncationMismatch, match=f"f_1[0-9]+ disagrees .* modulo {2**25 - 39}"):
        _exp_integral(_landau_psi(3, 200))
    assert cli.main(["count", "landau", "--q", "3", "--max-n", "200"]) == 1
    assert "internal mismatch" in capsys.readouterr().err


def test_audit_residue_catches_wrong_seeds(monkeypatch):
    monkeypatch.setattr(series, "_GROUP", 1)
    seed_rows = series._seed_rows
    monkeypatch.setattr(series, "_seed_rows", lambda known, p: seed_rows(known, p) + (len(known) > 1))
    with pytest.raises(TruncationMismatch):
        _exp_integral(_landau_psi(3, 200))


@pytest.mark.parametrize("q, N, group_engine_peak", [(3, 1500, 2.63), (101, 700, 2.04)])
def test_exact_table_memory_stays_below_the_group_engine(q, N, group_engine_peak):
    # the two tables that set the exact-tables peak_rss_mb; the bounds are
    # the tracemalloc peaks (MiB) of the engine that ran 64 primes at a time
    psi = _landau_psi(q, N)
    _exp_integral(psi)  # sieve the primes first, as a warm process has them
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        _exp_integral(psi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak <= group_engine_peak * 2**20


# -- the common-denominator exp against the Fraction loop it replaced ------


def fraction_exp(a):
    """exp of a series by m f_m = sum_j j a_j f_{m-j} on Fractions, term by term."""
    n = a.order
    f = [Fraction(1)] + [Fraction(0)] * n
    da = [i * (Fraction(c) if isinstance(c, int) else c) for i, c in enumerate(a.coeffs)]
    for m in range(1, n + 1):
        acc = 0
        for j in range(1, m + 1):
            if da[j] != 0:
                acc = acc + da[j] * f[m - j]
        f[m] = acc / m if not isinstance(acc, int) else Fraction(acc, m)
    return tuple(f)


_COEFFICIENTS = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.just(0),
    st.fractions(max_denominator=60),
)


@settings(max_examples=80, deadline=None)
@given(st.lists(_COEFFICIENTS, max_size=30), st.booleans())
def test_series_exp_matches_the_fraction_loop(coeffs, geometric):
    if geometric:  # denominators 3^j: the common denominator grows like 3^N
        coeffs = [Fraction(c) / 3**j for j, c in enumerate(coeffs, 1)]
    a = TruncatedSeries.from_coeffs([0] + coeffs)
    got = series_exp(a).coeffs
    assert got == fraction_exp(a)
    assert all(type(c) is Fraction for c in got)


@pytest.mark.parametrize("coeffs", [
    (),
    (5,),
    (-3, 4, -5, 6),
    (0,) * 12,
    (0, 0, 0, 7) + (0,) * 9,
    (0, Fraction(1, 2), 0, 0, Fraction(-5, 12), 0, 0, 0, 0, 2),
])
def test_series_exp_on_ints_signs_and_zero_runs(coeffs):
    a = TruncatedSeries.from_coeffs((0,) + coeffs)
    assert series_exp(a).coeffs == fraction_exp(a)


def test_series_exp_over_qpoly():
    N = 30
    log = [QPoly.from_const(0)] + [
        (QPoly.q_power(j, Fraction(1, 2)) + e_n_poly(j)) / j for j in range(1, N + 1)
    ]
    a = TruncatedSeries(tuple(log))
    got, want = series_exp(a).coeffs, fraction_exp(a)
    assert got == want
    assert [str(c) for c in got] == [str(c) for c in want]
    assert all(type(c) is Fraction for g in got[1:] for c in g.coeffs)
    assert [str(count_landau_poly_in_q(n)) for n in range(N + 1)] == [str(c) for c in want]


def test_exact_quotient_checks_every_division():
    assert _exact_quotient(-12, 4) == -3
    assert _exact_quotient(QPoly((6, -9)), 3) == QPoly((2, -3))
    with pytest.raises(ArithmeticError):
        _exact_quotient(7, 2)
    with pytest.raises(ArithmeticError):
        _exact_quotient(QPoly((4, 7)), 2)
