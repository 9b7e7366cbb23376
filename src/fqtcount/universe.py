"""Bulk enumeration oracle: factor every monic polynomial at once.

A monic polynomial of degree d over F_q is identified with an integer
code sum c_i q^i (leading term q^d included), so the q^d polynomials of
degree d map to the index range 0..q^d-1.  For each degree this module
records, per polynomial: its smallest prime factor (as an index into a
global prime list), that prime's exact multiplicity, and the index of
the coprime cofactor.  A family's membership rule (families.
membership_rule: which primes are admissible, which multiplicities pass)
is then one vectorized pass over these arrays, giving an independent
exhaustive check of every generating-function count.

Primes get global ids (gids) in the order they are found: by degree,
then by code.  Codes put c_0 as the fastest-varying digit, so gid order
is not ffield's canonical tuple order (where the last coefficient
varies fastest).  "Smallest prime factor" below means smallest gid.

The sieve is a linear sieve (Gries & Misra, CACM 21, 1978): it writes
every composite exactly once.  A composite f of degree d has exactly
one form P^e * h with P its smallest prime factor, P^e exactly dividing
f, and h either 1 or a polynomial whose smallest prime factor comes
after P.  So for each prime P of degree <= d/2 and each e, the sieve
writes P^e * h for h = 1 and for those h of degree d - e*deg P with
spf_gid[h] > gid(P).  All of them have degree < d, so their tables are
complete.  The slots left unwritten are the primes of degree d.
Products are computed in base-p digit form, where multiplication by a
fixed polynomial is a matrix product that BLAS batches over all
selected cofactors at once, in float32 unless a digit sum could pass
2^24 (_digit_dtype).  The digit helpers live in ffield, whose
remainder plan builds its matrices with the same _digit_rows.

Residues mod m (for the progression family) use the remainder plan's
map as well: f -> f mod m is F_p-linear in f's digits, with digit rows
Y^s x^j mod m (the scalar rows x^j mod m from _powers_of_x_mod, spread
into digits by _digit_rows), so one product reduces every prime at once.
"""

from __future__ import annotations

import numpy as np

from . import ffield
from .errors import EvenCharacteristic, ResourceLimit
from .ffield import (
    FieldSpec,
    MonicPoly,
    _digit_count,
    _digit_dtype,
    _digit_rows,
    _powers_of_x_mod,
)


def poly_of_code(field: FieldSpec, code: int) -> MonicPoly:
    return MonicPoly(ffield.coeffs_of_code(field, code))


def _digits_of_codes(field: FieldSpec, codes: np.ndarray, degree: int) -> np.ndarray:
    """Base-p digit matrix of the given codes, in the _digit_dtype of degree."""
    p = field.p
    out = np.empty((len(codes), _digit_count(field, degree)), dtype=_digit_dtype(field, degree))
    for col in range(out.shape[1]):
        rest = codes // p  # a floor division by a scalar is far cheaper than %
        out[:, col] = codes - rest * p
        codes = rest
    return out


def _mul_matrix(field: FieldSpec, w: tuple[int, ...], in_deg: int, out_deg: int) -> np.ndarray:
    """Digit-space matrix of multiplication by the fixed polynomial w.

    Maps digit vectors of polynomials of degree <= in_deg to digit
    vectors of their products with w (degree <= out_deg): row j of the
    coefficient matrix is x^j w, placed by index arithmetic.
    """
    coeffs = np.zeros((in_deg + 1, out_deg + 1), dtype=np.int64)
    j = np.arange(in_deg + 1)[:, None]
    coeffs[j, j + np.arange(len(w))] = w
    return _digit_rows(field, coeffs).astype(_digit_dtype(field, in_deg))


class Universe:
    """Smallest-prime-factor tables for all monic polynomials up to a degree."""

    def __init__(self, field: FieldSpec, max_degree: int, cap: int | None = None):
        self.field = field
        self.cap = ffield.default_cap() if cap is None else cap
        self.max_degree = 0
        # per degree d >= 1, arrays of length q^d
        self.spf_gid: list[np.ndarray] = [np.empty(0, np.int32)]
        self.e1: list[np.ndarray] = [np.empty(0, np.int8)]
        self.cof_deg: list[np.ndarray] = [np.empty(0, np.int8)]
        self.cof_idx: list[np.ndarray] = [np.empty(0, np.int64)]
        self.prime_codes = np.empty(0, np.int64)
        self.prime_deg = np.empty(0, np.int16)
        self._prime_slices: list[slice] = [slice(0, 0)]
        self._chi = None
        self._residues: dict[tuple, np.ndarray] = {}
        self._masks: dict[tuple, list[np.ndarray]] = {}
        self.extend_to(max_degree)

    # -- construction -------------------------------------------------

    def extend_to(self, max_degree: int) -> None:
        q = self.field.q
        if q**max_degree > self.cap:
            raise ResourceLimit(
                f"universe of degree {max_degree} over F_{q} exceeds cap {self.cap}"
            )
        for d in range(self.max_degree + 1, max_degree + 1):
            self._build_degree(d)
        self.max_degree = max(self.max_degree, max_degree)

    def _build_degree(self, d: int) -> None:
        field, q = self.field, self.field.q
        size = q**d
        spf = np.full(size, -1, dtype=np.int32)
        e1 = np.zeros(size, dtype=np.int8)
        cof_deg = np.zeros(size, dtype=np.int8)
        cof_idx = np.zeros(size, dtype=np.int64)
        p_pows = self.field.p ** np.arange(_digit_count(field, d), dtype=np.int64)
        digit_cache: dict[int, np.ndarray] = {}
        for p_deg in range(1, d // 2 + 1):
            sl = self._prime_slices[p_deg]
            for gid in range(sl.start, sl.stop):
                prime = poly_of_code(field, int(self.prime_codes[gid]))
                w = (1,)
                for e in range(1, d // p_deg + 1):
                    w = ffield.poly_mul(field, w, prime.coeffs)
                    k_deg = d - e * p_deg
                    if k_deg == 0:
                        # h = 1: the prime power itself
                        tgt, sel = ffield.code_of(field, w) - size, 0
                    elif k_deg < p_deg:
                        continue  # every prime factor of h precedes P
                    else:
                        # cofactors whose smallest prime comes after P
                        sel = np.flatnonzero(self.spf_gid[k_deg] > gid)
                        if not len(sel):
                            continue
                        digits = digit_cache.get(k_deg)
                        if digits is None:
                            codes_h = q**k_deg + np.arange(q**k_deg, dtype=np.int64)
                            digits = _digits_of_codes(field, codes_h, k_deg)
                            digit_cache[k_deg] = digits
                        mat = _mul_matrix(field, w, k_deg, d)
                        prod = (digits[sel] @ mat).astype(np.int64)
                        prod -= prod // field.p * field.p  # far cheaper than a float np.mod
                        tgt = prod @ p_pows - size
                    spf[tgt] = gid
                    e1[tgt] = e
                    cof_deg[tgt] = k_deg
                    cof_idx[tgt] = sel
        prime_idx = np.flatnonzero(spf < 0)
        start = len(self.prime_codes)
        gids = np.arange(start, start + len(prime_idx), dtype=np.int32)
        spf[prime_idx] = gids
        e1[prime_idx] = 1
        cof_deg[prime_idx] = 0
        cof_idx[prime_idx] = 0
        self.prime_codes = np.concatenate(
            [self.prime_codes, prime_idx.astype(np.int64) + q**d]
        )
        self.prime_deg = np.concatenate(
            [self.prime_deg, np.full(len(prime_idx), d, dtype=np.int16)]
        )
        self._prime_slices.append(slice(start, start + len(prime_idx)))
        self.spf_gid.append(spf)
        self.e1.append(e1)
        self.cof_deg.append(cof_deg)
        self.cof_idx.append(cof_idx)
        self._chi = None  # refresh lazily over the longer prime list
        self._residues.clear()

    # -- per-prime attributes -----------------------------------------

    def prime_chi2(self) -> np.ndarray:
        """Quadratic character of each prime, in {-1, 0, +1}."""
        if self.field.p == 2:
            raise EvenCharacteristic("quadratic character needs odd q")
        if self._chi is None or len(self._chi) != len(self.prime_codes):
            c0 = (self.prime_codes % self.field.q).astype(np.int64)
            chi = np.where(ffield.square_mask(self.field)[c0], 1, -1).astype(np.int8)
            chi[c0 == 0] = 0
            self._chi = chi
        return self._chi

    def prime_residues(self, m: MonicPoly) -> np.ndarray:
        """Residue code of each prime modulo m, by one digit product (see above)."""
        key = m.coeffs
        cached = self._residues.get(key)
        if cached is not None and len(cached) == len(self.prime_codes):
            return cached
        field, p, n = self.field, self.field.p, self.max_degree
        rows = _digit_rows(field, _powers_of_x_mod(field, m.coeffs, n))
        digits = _digits_of_codes(field, self.prime_codes, n)
        res = (digits @ rows.astype(digits.dtype)).astype(np.int64)
        res -= res // p * p  # a floor division by a scalar is far cheaper than %
        out = res @ p ** np.arange(res.shape[1], dtype=np.int64)
        self._residues[key] = out
        return out

    # -- membership masks ---------------------------------------------

    def masks(self, rule) -> list[np.ndarray]:
        """Per-degree boolean membership arrays for one family's rule.

        rule (a families.MembershipRule) marks the admissible primes by
        rule.admissible(self), from prime_deg, prime_chi2 or
        prime_residues; a polynomial P^e * h (P its smallest prime factor)
        is a member when rule.passes(admissible at P, e) and h is one.
        Index d of the returned list covers the monic polynomials of
        degree d in canonical order; index 0 is the constant 1.
        """
        cached = self._masks.get(rule.key)
        if cached is not None and len(cached) == self.max_degree + 1:
            return cached
        good_prime = rule.admissible(self)
        ok = [np.ones(1, dtype=bool)]
        # offsets[k]: where degree k starts in np.concatenate(ok)
        offsets = np.cumsum([0] + [self.field.q**k for k in range(self.max_degree)])
        for d in range(1, self.max_degree + 1):
            pred = rule.passes(good_prime[self.spf_gid[d]], self.e1[d])
            okc = np.concatenate(ok)[offsets[self.cof_deg[d]] + self.cof_idx[d]]
            ok.append(pred & okc)
        self._masks[rule.key] = ok
        return ok

    def count(self, rule, degree: int) -> int:
        """Exhaustive count of degree-n members under one family's rule."""
        if degree > self.max_degree:
            self.extend_to(degree)
        if degree == 0:
            return 1
        return int(self.masks(rule)[degree].sum())

    # -- diagnostics ---------------------------------------------------

    def primes_of_degree(self, d: int) -> np.ndarray:
        return self.prime_codes[self._prime_slices[d]]

    def factor_chain(self, degree: int, idx: int) -> list[tuple[int, int]]:
        """Factorization of one polynomial as (prime code, multiplicity) pairs."""
        out = []
        d, i = degree, idx
        while d > 0:
            gid = int(self.spf_gid[d][i])
            out.append((int(self.prime_codes[gid]), int(self.e1[d][i])))
            d, i = int(self.cof_deg[d][i]), int(self.cof_idx[d][i])
        return out


_UNIVERSE_CACHE: dict[tuple, Universe] = {}


def get_universe(field: FieldSpec, max_degree: int, cap: int | None = None) -> Universe:
    """A shared Universe for the field, grown on demand.

    An explicit cap limits how much work this call may trigger; it is
    not stored, so one small-budget caller never shrinks the shared
    instance for everyone else.  Data that is already built is returned
    regardless of cap, since no new work is involved.
    """
    key = (field.p, field.k, field.modulus)
    uni = _UNIVERSE_CACHE.get(key)
    if uni is not None and max_degree <= uni.max_degree:
        return uni
    if cap is not None and field.q**max_degree > cap:
        raise ResourceLimit(
            f"universe of degree {max_degree} over F_{field.q} exceeds cap {cap}"
        )
    if uni is None:
        uni = Universe(field, max_degree)
        _UNIVERSE_CACHE[key] = uni
    else:
        uni.extend_to(max_degree)
    return uni
