"""The shared factorization sieve, validated against scalar enumeration."""

import tracemalloc

import numpy as np
import pytest

from fqtcount import families, ffield, universe
from fqtcount.errors import EvenCharacteristic, ResourceLimit
from fqtcount.families import (
    FamilySpec,
    canonical_family,
    membership_oracle,
    membership_rule,
    oracle_count,
)
from fqtcount.ffield import MonicPoly, code_of, field_for_order
from fqtcount.primecounts import pi_q
from fqtcount.universe import PrimeTable, Universe, get_universe, poly_of_code
from trial_division import trial_division_factor, trial_division_primes


def first_write_sieve(field, max_degree):
    """The first-write-wins sieve that the linear sieve replaced, kept as a reference.

    It writes P^e * h for every prime P of degree <= d/2 in gid order, e
    descending, and every cofactor h of degree d - e*deg P; a slot keeps
    its first write.  Returns spf_gid, e1, cof_deg, cof_idx (per degree)
    and prime_codes, laid out as in Universe (its primes.codes).
    """
    q, p = field.q, field.p
    spf_gid = [np.empty(0, np.int32)]
    e1s = [np.empty(0, np.int8)]
    cof_degs = [np.empty(0, np.int8)]
    cof_idxs = [np.empty(0, np.int32)]
    prime_codes = np.empty(0, np.int64)
    slices = [slice(0, 0)]
    for d in range(1, max_degree + 1):
        size = q**d
        spf = np.full(size, -1, dtype=np.int32)
        e1 = np.zeros(size, dtype=np.int8)
        cof_deg = np.zeros(size, dtype=np.int8)
        cof_idx = np.zeros(size, dtype=np.int32)  # indices below q^(d-1) <= 2^31
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


def flat_offsets(q, max_degree):
    """Where degree k starts in the all-degrees layout: q^0 + ... + q^(k-1), k <= max_degree."""
    return np.cumsum([0] + [q**k for k in range(max_degree)])


def reference_arrays(field, max_degree):
    """first_write_sieve's spf_gid, e1 and prime codes, with each cofactor as its
    flat position offsets[cof_deg] + cof_idx (degree k starts at q^0 + ... +
    q^(k-1)), in cof_idx's type."""
    spf_gid, e1, cof_deg, cof_idx, prime_codes = first_write_sieve(field, max_degree)
    offsets = flat_offsets(field.q, max_degree)
    cof_pos = [(offsets[deg] + idx).astype(idx.dtype) for deg, idx in zip(cof_deg, cof_idx)]
    return spf_gid, e1, cof_pos, prime_codes


def assert_matches_reference(uni, field, max_degree):
    spf_gid, e1, cof_pos, prime_codes = reference_arrays(field, max_degree)
    for mine, ref in ((uni.spf_gid, spf_gid), (uni.e1, e1), (uni.cof_pos, cof_pos),
                      ([uni.primes.codes], [prime_codes])):
        for a, b in zip(mine, ref, strict=True):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


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
                    for c in uni.primes.codes.tolist()]
        assert uni.primes.prime_residues(m).tolist() == expected, text


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
            assert oracle_count(field, spec, degree) == _scalar_members(field, spec, degree).sum()


def test_arith_counts_match_scalar_oracle():
    field = field_for_order(3)
    spec = FamilySpec(
        canonical_family("arith"), q=3, m=(1, 0, 1), a=(1, 1)
    )
    for degree in range(1, 6):
        assert oracle_count(field, spec, degree) == _scalar_members(field, spec, degree).sum()


@pytest.mark.parametrize("q, max_deg", [(3, 6), (4, 4), (5, 4)])
def test_scalar_and_sieve_masks_agree_for_every_family(q, max_deg):
    field = field_for_order(q)
    specs = [FamilySpec(name, q=q) for name in ("s1", "s2", "s3")]
    if q % 2:
        specs.append(FamilySpec("landau", q=q))
    # T^2 + T = T (T + 1) is reducible: its units are the residues nonzero at 0 and -1
    specs += [FamilySpec("arith", q=q, m=(0, 1, 1), a=a) for a in ((1,), (q - 1, 1))]
    for spec in specs:
        rule = membership_rule(field, spec)
        sieve = get_universe(field, max_deg).masks(rule, max_deg)
        for d in range(1, max_deg + 1):
            assert np.array_equal(_scalar_members(field, spec, d), sieve[d]), (spec, d)


@pytest.mark.parametrize("q", [3, 4, 5, 9])
def test_prime_table_matches_scalar_chi2_and_residues(q):
    field = field_for_order(q)
    primes = [P for d in range(1, 5) for P in trial_division_primes(field, d)]
    table = PrimeTable(field, np.array([code_of(field, P.coeffs) for P in primes]),
                       np.array([P.degree for P in primes]))
    if q % 2:
        assert table.prime_chi2().tolist() == [ffield.chi2(field, P) for P in primes]
    # a reducible modulus, and one of degree past every prime's
    for m in (MonicPoly((0, 1, 1)), MonicPoly((1, 2, 0, 0, 0, 1))):
        expected = [families._residue_code(field, P, m) for P in primes]
        assert table.prime_residues(m).tolist() == expected


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
    # a degree within a tight cap is served from the built data
    assert get_universe(field, 2, cap=10) is big
    # growth past the caller's budget is refused
    with pytest.raises(ResourceLimit):
        get_universe(field, big.max_degree + 3, cap=10)
    # and the shared instance is still intact and still growable
    after = get_universe(field, big.max_degree + 1)
    assert after is big
    assert after.max_degree >= 7


def test_universe_answers_to_the_live_cap_warm_or_cold(monkeypatch):
    field, landau = field_for_order(3), FamilySpec("landau", q=3)

    def count(n, warm):
        if not warm:
            monkeypatch.setattr(universe, "_UNIVERSE_CACHE", {})
        try:
            return oracle_count(field, landau, n)
        except ResourceLimit as exc:
            assert "exceeds cap 50" in str(exc)
            return None

    for warm in (False, True):
        # loosened after the build: a universe built under FQT_CAP=50
        # keeps no cap, so degree 5 counts once the variable is gone
        monkeypatch.setattr(universe, "_UNIVERSE_CACHE", {})
        monkeypatch.setenv("FQT_CAP", "50")
        assert count(3, warm) == 12
        monkeypatch.delenv("FQT_CAP")
        assert count(5, warm) == 84
        # tightened after the build: degree 5 stops at 3^5 > 50 even
        # though it is built, and degree 3 still counts
        monkeypatch.setenv("FQT_CAP", "50")
        assert count(5, warm) is None
        assert count(3, warm) == 12
        assert oracle_count(field, landau, 5, cap=243) == 84


def test_landau_oracle_needs_odd_q():
    field = field_for_order(4)
    spec = FamilySpec("landau", q=4)
    with pytest.raises(EvenCharacteristic):
        oracle_count(field, spec, 2)
    with pytest.raises(EvenCharacteristic):
        membership_oracle(field, ffield.factor(field, MonicPoly((1, 1))), spec)
    # the character table itself refuses even q as well
    with pytest.raises(EvenCharacteristic):
        get_universe(field, 2).primes.prime_chi2()


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
    for degree in (0, 3):
        with pytest.raises(ResourceLimit):
            _digit_dtype(huge, degree)  # (2^31 - 2)^2 > 2^53: no exact float type


@pytest.mark.parametrize("q, max_deg", [
    (2, 14), (3, 9), (4, 7), (5, 6), (7, 5), (8, 5), (9, 4),
    (263, 2),  # 263^3 > 2^24: degree 2 encodes in float64
    (1009, 2),  # 1009 primes of degree 1 in one stacked matrix, uint16 digits
])
def test_linear_sieve_matches_first_write_reference(q, max_deg):
    field = field_for_order(q)
    assert_matches_reference(Universe(field, max_deg), field, max_deg)


@pytest.mark.parametrize("q, max_deg, chunk", [
    # degree 4 over F_3 (18 primes) runs in sub-slices of 300 // (5 * 9) = 6
    # primes at degree 8, and each sub-slice masks the degree-4 cofactors
    # whose smallest prime lies inside it
    (3, 8, 300), (2, 12, 500), (4, 6, 400), (5, 5, 200), (9, 3, 100),
])
def test_sub_slices_of_one_prime_degree_change_no_array(monkeypatch, q, max_deg, chunk):
    field = field_for_order(q)
    monkeypatch.setattr(ffield, "_CHUNK_ENTRIES", chunk)
    assert_matches_reference(Universe(field, max_deg), field, max_deg)


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
    powers = ffield._code_powers(field, degree)
    assert powers.dtype == code_dtype
    top = q ** (degree + 1)
    codes = [c for c in (0, 1, p, top - 1, 2**24 - 1, 2**24, 2**24 + 1) if c < top]
    digits = [_digits_of(c, p, width) for c in codes]
    # digit + p * (limit // p - 1) runs over k*p - 1, k*p and k*p + 1, just below limit
    m = limit // p - 1
    sums = np.array([[x + p * m for x in row] for row in digits], dtype=sum_dtype)
    assert all(int(c) == x + p * m for row, srow in zip(digits, sums.tolist())
               for x, c in zip(row, srow))  # the sums themselves are exact
    # the sums pass an identity matrix unchanged: sums @ I == sums exactly
    out = ffield._digit_product(sums, np.eye(width, dtype=sum_dtype), p, powers)
    assert out.dtype == np.int64
    assert out.tolist() == codes


def test_monic_digits_match_division():
    for q, degree in ((2, 5), (3, 4), (4, 3), (9, 2), (25, 1), (263, 1)):
        field = field_for_order(q)
        codes = q**degree + np.arange(q**degree, dtype=np.int64)
        expected = ffield._digits(codes, field.p, ffield._digit_count(field, degree))
        got = universe._monic_digits(field, degree)
        assert got.dtype == expected.dtype == (np.uint8 if field.p <= 256 else np.uint16)
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("q, max_deg", [(2, 10), (3, 7), (4, 5), (8, 3), (9, 3), (25, 3)])
def test_sieve_slots_hold_smallest_prime_exact_power_and_full_factorization(q, max_deg):
    field = field_for_order(q)
    uni = Universe(field, max_deg)
    offsets = flat_offsets(q, max_deg)
    for d in range(1, max_deg + 1):
        spf, e1 = uni.spf_gid[d], uni.e1[d]
        # the cofactor's degree and index, decoded from its flat position
        cdeg = np.searchsorted(offsets, uni.cof_pos[d], side="right") - 1
        cidx = uni.cof_pos[d] - offsets[cdeg]
        composite = (cdeg > 0) | (e1 > 1)
        # a prime slot holds a prime of its own degree with multiplicity 1
        assert (uni.primes.prime_deg[spf[~composite]] == d).all()
        assert (e1[~composite] == 1).all()
        for kk in range(1, d):
            sel = composite & (cdeg == kk)
            # the cofactor's smallest prime comes after the slot's
            assert (uni.spf_gid[kk][cidx[sel]] > spf[sel]).all()
        for idx in np.flatnonzero(composite & (cdeg > 0)):
            prime = poly_of_code(field, int(uni.primes.codes[spf[idx]]))
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
    chi = uni.primes.prime_chi2()
    assert chi.dtype == np.int8 and len(chi) == len(uni.primes.codes)
    for code, c in zip(uni.primes.codes.tolist(), chi.tolist()):
        prime = poly_of_code(field, code)
        c0 = prime.coeffs[0]
        assert c == (0 if c0 == 0 else (1 if c0 in squares else -1))
        assert c == ffield.chi2(field, prime)


def _scalar_members(field, spec, degree):
    """membership_oracle of every monic polynomial of the degree (>= 1),
    one at a time from ffield.factor, in code order (the constant term
    fastest)."""
    q = field.q
    polys = (poly_of_code(field, q**degree + i) for i in range(q**degree))
    return np.array([membership_oracle(field, ffield.factor(field, f), spec) for f in polys])


@pytest.mark.parametrize("q, max_deg", [(2, 10), (3, 6), (4, 5), (9, 3)])
def test_row_chunks_of_a_few_rows_change_no_array_mask_or_residue(monkeypatch, q, max_deg):
    field = field_for_order(q)
    whole = Universe(field, max_deg)
    # a sieve chunk holds 50 // ((d+1)k) rows, a mask chunk 50 polynomials
    monkeypatch.setattr(ffield, "_CHUNK_ENTRIES", 50)
    chunked = Universe(field, max_deg)
    spf_gid, e1, cof_pos, prime_codes = reference_arrays(field, max_deg)
    for mine, ref, unpatched in (
        (chunked.spf_gid, spf_gid, whole.spf_gid), (chunked.e1, e1, whole.e1),
        (chunked.cof_pos, cof_pos, whole.cof_pos),
        ([chunked.primes.codes], [prime_codes], [whole.primes.codes]),
    ):
        for a, b, c in zip(mine, ref, unpatched, strict=True):
            assert a.dtype == b.dtype == c.dtype
            assert np.array_equal(a, b) and np.array_equal(a, c)
    m = MonicPoly((1, 1, 1))
    specs = [FamilySpec(name, q=q) for name in ("s1", "s3")]
    specs.append(FamilySpec("arith", q=q, m=m.coeffs, a=(1,)))
    if q % 2:
        specs.append(FamilySpec("landau", q=q))
    for spec in specs:
        rule = membership_rule(field, spec)
        masks = chunked.masks(rule, max_deg)
        for d, (a, b) in enumerate(zip(masks, whole.masks(rule, max_deg), strict=True)):
            assert np.array_equal(a, b), (spec.family, d)
        assert np.array_equal(masks[max_deg], _scalar_members(field, spec, max_deg))
    residues = chunked.primes.prime_residues(m)
    assert np.array_equal(residues, whole.primes.prime_residues(m))
    assert residues.tolist() == [
        code_of(field, ffield.poly_mod(field, poly_of_code(field, c).coeffs, m.coeffs))
        for c in chunked.primes.codes.tolist()
    ]
    # deg m > max_deg and q^(deg m) > 2^53: each prime is its own residue
    big = MonicPoly((1, 1) + (0,) * 52 + (1,))
    assert np.array_equal(chunked.primes.prime_residues(big), chunked.primes.codes)


def test_masks_are_evaluated_only_to_the_degree_counted():
    field = field_for_order(3)
    uni = Universe(field, 6)
    spec = FamilySpec("landau", q=3)
    rule = membership_rule(field, spec)
    assert uni.count(rule, 3) == _scalar_members(field, spec, 3).sum()
    assert len(uni._masks[rule.key]) == 4  # degrees 0..3
    fresh = Universe(field, 6)
    assert uni.count(rule, 6) == fresh.count(membership_rule(field, spec), 6)
    for a, b in zip(uni._masks[rule.key], fresh._masks[rule.key], strict=True):
        assert np.array_equal(a, b)


def test_sieve_memory_is_its_arrays_digits_and_one_row_chunk(monkeypatch):
    field = field_for_order(3)
    monkeypatch.setattr(ffield, "_CHUNK_ENTRIES", 1 << 12)
    tracemalloc.start()
    try:
        uni = Universe(field, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = sum(a.nbytes for table in (uni.spf_gid, uni.e1, uni.cof_pos)
                 for a in table) + uni.primes.codes.nbytes + uni.primes.prime_deg.nbytes
    # the uint8 cofactor digits of degrees 1..10, live while degree 11 is built
    digits = sum(3**k * (k + 1) for k in range(1, 11))
    # the slack covers the two cofactor selections (int64, 3^10 entries at
    # most between them), their boolean tests, a stacked matrix and a few
    # chunks of 4096 entries
    assert peak < arrays + digits + (1 << 20)


def test_digit_and_index_types_at_their_edges():
    top = {251: np.uint8, 257: np.uint16}
    for p, dtype in top.items():
        digits = universe._monic_digits(field_for_order(p), 1)
        assert digits.dtype == dtype
        assert digits[-1].tolist() == [p - 1, 1]
    for p, dtype in {**top, 65537: np.uint32}.items():
        digits = ffield._digits([p * p - 1, p], p, 3)
        assert digits.dtype == dtype
        assert digits.tolist() == [[p - 1, p - 1, 0], [0, 1, 0]]
    assert universe._index_dtype(2**31 - 1) is np.int32
    assert universe._index_dtype(2**31 + 1) is np.int64
    # under the default cap of 10^8 every cofactor index is int32
    assert universe._index_dtype(10**8) is np.int32
