"""The shared factorization sieve, validated against scalar enumeration."""

import numpy as np
import pytest

from fqtcount import ffield, universe
from fqtcount.errors import EvenCharacteristic, ResourceLimit
from fqtcount.families import FamilySpec, canonical_family, membership_rule, oracle_count
from fqtcount.ffield import code_of, field_for_order
from fqtcount.primecounts import pi_q
from fqtcount.universe import Universe, get_universe, poly_of_code
from trial_division import trial_division_factor


def first_write_sieve(field, max_degree):
    """The first-write-wins sieve that the linear sieve replaced, kept as a reference.

    It writes P^e * h for every prime P of degree <= d/2 in gid order, e
    descending, and every cofactor h of degree d - e*deg P; a slot keeps
    its first write.  Returns spf_gid, e1, cof_deg, cof_idx (per degree)
    and prime_codes, laid out as in Universe.
    """
    q, p = field.q, field.p
    spf_gid = [np.empty(0, np.int32)]
    e1s = [np.empty(0, np.int8)]
    cof_degs = [np.empty(0, np.int8)]
    cof_idxs = [np.empty(0, np.int64)]
    prime_codes = np.empty(0, np.int64)
    slices = [slice(0, 0)]
    for d in range(1, max_degree + 1):
        size = q**d
        spf = np.full(size, -1, dtype=np.int32)
        e1 = np.zeros(size, dtype=np.int8)
        cof_deg = np.zeros(size, dtype=np.int8)
        cof_idx = np.zeros(size, dtype=np.int64)
        p_pows = p ** np.arange(ffield._digit_count(field, d), dtype=np.int64)
        for p_deg in range(1, d // 2 + 1):
            for gid in range(slices[p_deg].start, slices[p_deg].stop):
                prime = poly_of_code(field, int(prime_codes[gid]))
                for e in range(d // p_deg, 0, -1):
                    k_deg = d - e * p_deg
                    w = prime.coeffs
                    for _ in range(e - 1):
                        w = ffield.poly_mul(field, w, prime.coeffs)
                    mat = universe._mul_matrix(field, w, k_deg, d)
                    codes_h = q**k_deg + np.arange(q**k_deg, dtype=np.int64)
                    powers = p ** np.arange(ffield._digit_count(field, k_deg), dtype=np.int64)
                    digits = ((codes_h[:, None] // powers[None, :]) % p).astype(mat.dtype)
                    prod_digits = np.mod(digits @ mat, float(p))
                    idx = prod_digits.astype(np.int64) @ p_pows[: prod_digits.shape[1]] - size
                    sel = np.flatnonzero(spf[idx] < 0)
                    tgt = idx[sel]
                    spf[tgt] = gid
                    e1[tgt] = e
                    cof_deg[tgt] = k_deg
                    cof_idx[tgt] = sel
        prime_idx = np.flatnonzero(spf < 0)
        start = len(prime_codes)
        spf[prime_idx] = np.arange(start, start + len(prime_idx), dtype=np.int32)
        e1[prime_idx] = 1
        prime_codes = np.concatenate([prime_codes, prime_idx.astype(np.int64) + size])
        slices.append(slice(start, start + len(prime_idx)))
        spf_gid.append(spf)
        e1s.append(e1)
        cof_degs.append(cof_deg)
        cof_idxs.append(cof_idx)
    return spf_gid, e1s, cof_degs, cof_idxs, prime_codes


def test_code_roundtrip():
    for q in (2, 3, 9, 25):
        field = field_for_order(q)
        for f in ffield.enumerate_monic(field, 3):
            assert poly_of_code(field, code_of(field, f.coeffs)).coeffs == f.coeffs


@pytest.mark.parametrize("q, max_deg, moduli", [
    (2, 12, ("T", "T+1", "T^2+1", "T^2+T+1", "T^3+T+1")),
    (3, 9, ("T+2", "T^2+1", "T^2+2T+1", "T^3+2T+1")),
    (4, 6, ("T+3", "T^2+1", "T^2+T+2", "T^3+2")),
    (9, 4, ("T+5", "T^2+1", "T^2+2T+1", "T^3+T+7")),
])
def test_prime_residues_match_poly_mod(q, max_deg, moduli):
    # each list has (T+1)^2: T^2+1 in characteristic 2, T^2+2T+1 in characteristic 3
    field = field_for_order(q)
    uni = Universe(field, max_deg)
    for text in moduli:
        m = ffield.poly_from_string(field, text)
        expected = [code_of(field, ffield.poly_mod(field, poly_of_code(field, c).coeffs, m.coeffs))
                    for c in uni.prime_codes.tolist()]
        assert uni.prime_residues(m).tolist() == expected, text


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
            assert code_of(field, product) == idx + 3**degree


def test_factor_multiplicities_are_exact():
    # spot-check (T)^2 * (T+1) over F_3
    field = field_for_order(3)
    uni = get_universe(field, 3)
    f = ffield.poly_mul(field, ffield.poly_mul(field, (0, 1), (0, 1)), (1, 1))
    idx = code_of(field, f) - 27
    chain = dict(uni.factor_chain(3, idx))
    t_code = code_of(field, (0, 1))
    t1_code = code_of(field, (1, 1))
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


def test_landau_oracle_needs_odd_q():
    field = field_for_order(4)
    spec = FamilySpec("landau", q=4)
    for method in ("sieve", "scalar"):
        with pytest.raises(EvenCharacteristic):
            oracle_count(field, spec, 2, method=method)
    # the character table itself refuses even q as well
    with pytest.raises(EvenCharacteristic):
        get_universe(field, 2).prime_chi2()


def test_mask_counts_sum_to_totals():
    # every monic polynomial is either in s2 or has an odd-degree prime factor
    field = field_for_order(3)
    uni = get_universe(field, 6)
    s2_rule = membership_rule(field, FamilySpec("s2", q=3))
    s3_rule = membership_rule(field, FamilySpec("s3", q=3))
    for d in range(1, 7):
        s2 = uni.count(s2_rule, d)
        assert 0 <= s2 <= 3**d
        # s3 members are squarefree s2 members
        assert uni.count(s3_rule, d) <= s2


def test_digit_dtype_keeps_digit_products_exact():
    _digit_dtype = ffield._digit_dtype
    # a product digit is at most (deg+1) * k * (p-1)^2
    assert _digit_dtype(field_for_order(3), 22) is np.float32
    assert _digit_dtype(field_for_order(9), 10) is np.float32
    assert _digit_dtype(field_for_order(1021), 15) is np.float32  # 16 * 1020^2 < 2^24
    assert _digit_dtype(field_for_order(1031), 15) is np.float64  # 16 * 1030^2 > 2^24
    assert _digit_dtype(field_for_order(4001), 0) is np.float32  # 4000^2 < 2^24
    assert _digit_dtype(field_for_order(4001), 1) is np.float64  # 2 * 4000^2 > 2^24
    huge = ffield.FieldSpec(p=2**31 - 1, k=1, modulus=(0, 1))
    assert _digit_dtype(huge, 0) is np.int64  # (2^31 - 2)^2 > 2^53, < 2^63
    with pytest.raises(ResourceLimit):
        _digit_dtype(huge, 3)  # 4 * (2^31 - 2)^2 > 2^63


@pytest.mark.parametrize("q, max_deg", [
    (2, 14), (3, 9), (4, 7), (5, 6), (7, 5), (8, 5), (9, 4),
    (263, 2),  # 263^3 > 2^24: degree 2 encodes in float64
])
def test_linear_sieve_matches_first_write_reference(q, max_deg):
    field = field_for_order(q)
    uni = Universe(field, max_deg)
    spf_gid, e1, cof_deg, cof_idx, prime_codes = first_write_sieve(field, max_deg)
    for mine, ref in ((uni.spf_gid, spf_gid), (uni.e1, e1), (uni.cof_deg, cof_deg),
                      (uni.cof_idx, cof_idx), ([uni.prime_codes], [prime_codes])):
        assert len(mine) == len(ref)
        for a, b in zip(mine, ref):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


def _digits_of(code, p, width):
    return [code // p**j % p for j in range(width)]


@pytest.mark.parametrize("q, degree, code_dtype", [
    (2, 23, np.float32),  # codes below 2^24
    (2, 24, np.float64),  # codes to 2^25 - 1
    (13, 5, np.float32),
    (13, 6, np.float64),
    (263, 2, np.float64),  # codes to 263^3 - 1 > 2^24
])
@pytest.mark.parametrize("sum_dtype, limit", [(np.float32, 1 << 24), (np.float64, 1 << 53)])
def test_reduce_and_encode_is_exact_at_the_float_bounds(q, degree, code_dtype, sum_dtype, limit):
    field = field_for_order(q)
    p, width = field.p, ffield._digit_count(field, degree)
    powers = universe._code_powers(field, degree)
    assert powers.dtype == code_dtype
    top = q ** (degree + 1)
    codes = [c for c in (0, 1, p, top - 1, 2**24 - 1, 2**24, 2**24 + 1) if c < top]
    digits = [_digits_of(c, p, width) for c in codes]
    # digit + p * (limit // p - 1) runs over k*p - 1, k*p and k*p + 1, just below limit
    m = limit // p - 1
    sums = np.array([[x + p * m for x in row] for row in digits], dtype=sum_dtype)
    assert all(int(c) == x + p * m for row, srow in zip(digits, sums.tolist())
               for x, c in zip(row, srow))  # the sums themselves are exact
    out = universe._codes_of_products(sums, p, powers)
    assert out.dtype == np.int64
    assert out.tolist() == codes
    assert sums.tolist() == digits  # reduced in place


def test_monic_digits_match_division():
    for q, degree in ((2, 5), (3, 4), (4, 3), (9, 2), (25, 1), (263, 1)):
        field = field_for_order(q)
        codes = q**degree + np.arange(q**degree, dtype=np.int64)
        expected = universe._digits_of_codes(field, codes, degree)
        got = universe._monic_digits(field, degree)
        assert got.dtype == expected.dtype
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("q, max_deg", [(2, 10), (4, 5), (8, 3), (9, 3), (25, 3)])
def test_sieve_slots_hold_smallest_prime_exact_power_and_full_factorization(q, max_deg):
    field = field_for_order(q)
    uni = Universe(field, max_deg)
    for d in range(1, max_deg + 1):
        spf, e1 = uni.spf_gid[d], uni.e1[d]
        cdeg, cidx = uni.cof_deg[d], uni.cof_idx[d]
        composite = (cdeg > 0) | (e1 > 1)
        # a prime slot holds a prime of its own degree with multiplicity 1
        assert (uni.prime_deg[spf[~composite]] == d).all()
        assert (e1[~composite] == 1).all()
        for kk in range(1, d):
            sel = composite & (cdeg == kk)
            # the cofactor's smallest prime comes after the slot's
            assert (uni.spf_gid[kk][cidx[sel]] > spf[sel]).all()
        for idx in np.flatnonzero(composite & (cdeg > 0)):
            prime = poly_of_code(field, int(uni.prime_codes[spf[idx]]))
            cof = poly_of_code(field, q ** int(cdeg[idx]) + int(cidx[idx]))
            # P does not divide the cofactor, so e1 is exact
            assert ffield.poly_mod(field, cof.coeffs, prime.coeffs) != ()
        for idx in range(q**d):
            expected = trial_division_factor(field, poly_of_code(field, q**d + idx))
            assert sorted(uni.factor_chain(d, idx)) == sorted(
                (code_of(field, prime.coeffs), mult) for prime, mult in expected.factors
            )


@pytest.mark.parametrize("q, max_deg", [(3, 4), (5, 3), (7, 2), (9, 2), (25, 2)])
def test_prime_chi2_matches_scalar_chi2(q, max_deg):
    field = field_for_order(q)
    uni = Universe(field, max_deg)
    squares = {ffield.element_mul(field, x, x) for x in range(1, q)}
    chi = uni.prime_chi2()
    assert chi.dtype == np.int8 and len(chi) == len(uni.prime_codes)
    for code, c in zip(uni.prime_codes.tolist(), chi.tolist()):
        prime = poly_of_code(field, code)
        c0 = prime.coeffs[0]
        assert c == (0 if c0 == 0 else (1 if c0 in squares else -1))
        assert c == ffield.chi2(field, prime)
