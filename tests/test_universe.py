"""The shared factorization sieve, validated against scalar enumeration."""

import numpy as np
import pytest

from fqtcount import ffield, universe
from fqtcount.errors import EvenCharacteristic, ResourceLimit
from fqtcount.families import FamilySpec, canonical_family, oracle_count
from fqtcount.ffield import MonicPoly, field_for_order
from fqtcount.primecounts import pi_q
from fqtcount.universe import Universe, code_of_poly, get_universe, poly_of_code


def test_code_roundtrip():
    field = field_for_order(3)
    for f in ffield.enumerate_monic(field, 3):
        assert poly_of_code(field, code_of_poly(field, f)).coeffs == f.coeffs


def test_prime_counts_match_census():
    for q in (2, 3, 5, 9):
        field = field_for_order(q)
        deg = {2: 10, 3: 7, 5: 5, 9: 3}[q]
        uni = get_universe(field, deg)
        for d in range(1, deg + 1):
            assert len(uni.primes_of_degree(d)) == pi_q(q, d)


def test_factor_chain_reconstructs_polynomial():
    field = field_for_order(3)
    uni = get_universe(field, 5)
    for degree in (2, 3, 5):
        spf = uni.spf_gid[degree]
        for idx in range(len(spf)):
            product = (1,)
            for prime_code, mult in uni.factor_chain(degree, idx):
                prime = poly_of_code(field, prime_code)
                for _ in range(mult):
                    product = ffield.poly_mul(field, product, prime.coeffs)
            assert code_of_poly(field, MonicPoly(product)) == idx + 3**degree


def test_factor_multiplicities_are_exact():
    # spot-check (T)^2 * (T+1) over F_3
    field = field_for_order(3)
    uni = get_universe(field, 3)
    f = ffield.poly_mul(field, ffield.poly_mul(field, (0, 1), (0, 1)), (1, 1))
    idx = code_of_poly(field, MonicPoly(f)) - 27
    chain = dict(uni.factor_chain(3, idx))
    t_code = code_of_poly(field, MonicPoly((0, 1)))
    t1_code = code_of_poly(field, MonicPoly((1, 1)))
    assert chain == {t_code: 2, t1_code: 1}


def test_counts_match_scalar_oracle():
    cases = [
        ("landau", 3, 5),
        ("s1", 3, 4),
        ("s2", 3, 4),
        ("s3", 3, 4),
        ("landau", 5, 3),
    ]
    for name, q, max_deg in cases:
        field = field_for_order(q)
        spec = FamilySpec(canonical_family(name), q=q)
        for degree in range(1, max_deg + 1):
            fast = oracle_count(field, spec, degree, method="sieve")
            slow = oracle_count(field, spec, degree, method="scalar")
            assert fast == slow


def test_arith_counts_match_scalar_oracle():
    field = field_for_order(3)
    spec = FamilySpec(
        canonical_family("arith"), q=3, m=(1, 0, 1), a=(1, 1)
    )
    for degree in range(1, 6):
        fast = oracle_count(field, spec, degree, method="sieve")
        slow = oracle_count(field, spec, degree, method="scalar")
        assert fast == slow


def test_universe_is_cached_and_extends():
    field = field_for_order(3)
    uni1 = get_universe(field, 4)
    uni2 = get_universe(field, 6)
    assert uni1 is uni2
    assert uni2.max_degree >= 6


def test_resource_cap_enforced():
    field = field_for_order(5)
    with pytest.raises(ResourceLimit):
        Universe(field, 12, cap=1000)


def test_small_cap_call_does_not_shrink_shared_universe():
    field = field_for_order(3)
    big = get_universe(field, 6)
    # a tight budget is satisfied by already-built data without work
    assert get_universe(field, 2, cap=10) is big
    # growth past the caller's budget is refused
    with pytest.raises(ResourceLimit):
        get_universe(field, big.max_degree + 3, cap=10)
    # and the shared instance is still intact and still growable
    after = get_universe(field, big.max_degree + 1)
    assert after is big
    assert after.max_degree >= 7


def test_landau_mask_needs_odd_q():
    field = field_for_order(4)
    uni = get_universe(field, 2)
    with pytest.raises(EvenCharacteristic):
        uni.masks("landau")


def test_mask_counts_sum_to_totals():
    # every monic polynomial is either in s2 or has an odd-degree prime factor
    field = field_for_order(3)
    uni = get_universe(field, 6)
    for d in range(1, 7):
        s2 = uni.count("s2", d)
        assert 0 <= s2 <= 3**d
        # s3 members are squarefree s2 members
        assert uni.count("s3", d) <= s2


def test_digit_dtype_keeps_digit_products_exact():
    _digit_dtype = universe._digit_dtype
    # a product digit is at most (deg+1) * k * (p-1)^2
    assert _digit_dtype(field_for_order(3), 22) is np.float32
    assert _digit_dtype(field_for_order(9), 10) is np.float32
    assert _digit_dtype(field_for_order(1021), 15) is np.float32  # 16 * 1020^2 < 2^24
    assert _digit_dtype(field_for_order(1031), 15) is np.float64  # 16 * 1030^2 > 2^24
    assert _digit_dtype(field_for_order(4001), 0) is np.float32  # 4000^2 < 2^24
    assert _digit_dtype(field_for_order(4001), 1) is np.float64  # 2 * 4000^2 > 2^24
    huge = ffield.FieldSpec(p=2**31 - 1, k=1, modulus=(0, 1))
    with pytest.raises(ResourceLimit):
        _digit_dtype(huge, 3)  # 4 * (2^31 - 2)^2 > 2^53
