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
fixed polynomial is a matrix product (_mul_matrix).  Each (P, e) block
runs on row chunks of the selected cofactors (_product_indices): a
chunk is gathered from the stored digits, then multiplied, reduced mod
p and encoded to codes by one ffield._digit_product, whose exactness
proof and chunk rule (_row_step) are in ffield's docstring.  So the
sieve's transient memory is one chunk, not q^(d-1) rows.  The cofactor
digits of each degree come from _monic_digits, which writes the monic
range without a division, in the same unsigned type as ffield._digits;
they are built once per _build_degree call and dropped with it.

A cofactor index is below q^(d-1), so cof_idx is int32 whenever
q^(d-1) <= 2^31 (_index_dtype), which the default cap of 10^8 always
meets, and int64 past it.

A rule's membership masks (masks) are kept per rule as views into one
flat buffer, and are evaluated only through the degree count asks for,
in row chunks of _row_step(1) polynomials.  When a higher degree is
asked (the oracles count n = 0, 1, ... in turn, one degree more each
time), the computed degrees are copied into a longer buffer and only
the new degrees are evaluated.

The per-prime values a membership rule reads (degree, chi2, residue
mod m) live on a PrimeTable of prime codes.  The Universe holds one for
its primes, and families' scalar oracle builds one for the primes that
ffield._factor_rows finds, so both oracles read them from one place.
Residues mod m (for the progression family) use the remainder plan's
map as well: f -> f mod m is F_p-linear in f's digits, with digit rows
Y^s x^j mod m (the scalar rows x^j mod m from _powers_of_x_mod, spread
into digits by _digit_rows), so one _digit_product per row chunk of
primes reduces and encodes them all.  A residue of a polynomial of
degree <= n has min(n + 1, deg m) coefficients, and its codes are sized
by that, not by deg m, so a modulus of high degree encodes exactly.

One Universe per field is shared (get_universe) and only grows.
extend_to checks the requested degree against the live enumeration cap
(ffield.check_cap) even when it is built already; no cap is stored.
"""

from __future__ import annotations

import numpy as np

from . import ffield
from .errors import EvenCharacteristic
from .ffield import (
    FieldSpec,
    MonicPoly,
    _code_powers,
    _digit_count,
    _digit_dtype,
    _digit_product,
    _digit_rows,
    _digits,
    _mul_matrix,
    _powers_of_x_mod,
    _row_step,
)


def poly_of_code(field: FieldSpec, code: int) -> MonicPoly:
    return MonicPoly(ffield.coeffs_of_code(field, code))


def _monic_digits(field: FieldSpec, degree: int) -> np.ndarray:
    """Base-p digit matrix of every monic polynomial of the degree, in code order.

    Row i holds the code q^degree + i.  Digit j < degree*k of i is
    (i // p^j) % p: it repeats each of 0..p-1 p^j times and cycles every
    p^(j+1) rows, so it is written through a reshaped view, without a
    division; the top k digits hold the leading 1.  The digits are
    stored in the smallest unsigned type that holds p - 1.
    """
    p, low = field.p, degree * field.k
    out = np.zeros((field.q**degree, _digit_count(field, degree)), dtype=np.min_scalar_type(p - 1))
    values = np.arange(p, dtype=out.dtype)[:, None]
    for j in range(low):
        out.reshape(p ** (low - 1 - j), p, p**j, -1)[:, :, :, j] = values
    out[:, low] = 1
    return out


def _index_dtype(count: int) -> type:
    """The type of indices below count: int32 when count <= 2^31, else int64."""
    return np.int32 if count <= 1 << 31 else np.int64


def _product_indices(digits: np.ndarray, sel: np.ndarray, matrix: np.ndarray,
                     p: int, powers: np.ndarray, size: int):
    """Yield (target indices, cofactor rows) per row chunk of the selected cofactors.

    Each chunk of sel is gathered from the stored digits and encoded by
    one _digit_product; the target index is the product's code less size.
    """
    step = _row_step(max(matrix.shape))
    for lo in range(0, len(sel), step):
        rows = sel[lo : lo + step]
        tgt = _digit_product(digits[rows], matrix, p, powers)
        tgt -= size  # in place: a new array per chunk measured slower
        yield tgt, rows


class PrimeTable:
    """Monic primes by code, with the per-prime values a membership rule reads.

    codes are polynomial codes (leading term included) in int64 and
    prime_deg their degrees; prime_chi2() and prime_residues(m) are
    computed once per table.  A Universe holds one for its primes (a new
    one per degree built), and the scalar oracle one for the primes its
    factorizations name (families.member_mask), so both oracles read the
    same per-prime values.
    """

    def __init__(self, field: FieldSpec, codes: np.ndarray, prime_deg: np.ndarray):
        self.field, self.codes, self.prime_deg = field, codes, prime_deg
        self._chi = None
        self._residues: dict[tuple, np.ndarray] = {}

    def prime_chi2(self) -> np.ndarray:
        """Quadratic character of each prime, in {-1, 0, +1}."""
        if self.field.p == 2:
            raise EvenCharacteristic("quadratic character needs odd q")
        if self._chi is None:
            self._chi = ffield._chi2_codes(self.field, self.codes % self.field.q)
        return self._chi

    def prime_residues(self, m: MonicPoly) -> np.ndarray:
        """Residue code of each prime modulo m, by one digit product (see above),
        over row chunks of the primes as in the sieve."""
        cached = self._residues.get(m.coeffs)
        if cached is not None:
            return cached
        field, p = self.field, self.field.p
        n = int(self.prime_deg.max(initial=0))
        # a residue of degree <= n has min(n + 1, deg m) coefficients
        width = min(n + 1, m.degree)
        matrix = _digit_rows(field, _powers_of_x_mod(field, m.coeffs, n)[:, :width])
        matrix = matrix.astype(_digit_dtype(field, n))
        powers = _code_powers(field, width - 1)
        out = np.empty(len(self.codes), dtype=np.int64)
        step = _row_step(max(matrix.shape))
        for lo in range(0, len(out), step):
            digits = _digits(self.codes[lo : lo + step], p, _digit_count(field, n))
            out[lo : lo + step] = _digit_product(digits, matrix, p, powers)
        self._residues[m.coeffs] = out
        return out


class Universe:
    """Smallest-prime-factor tables for all monic polynomials up to a degree."""

    def __init__(self, field: FieldSpec, max_degree: int, cap: int | None = None):
        self.field = field
        self.max_degree = 0
        # per degree d >= 1, arrays of length q^d
        self.spf_gid: list[np.ndarray] = [np.empty(0, np.int32)]
        self.e1: list[np.ndarray] = [np.empty(0, np.int8)]
        self.cof_deg: list[np.ndarray] = [np.empty(0, np.int8)]
        self.cof_idx: list[np.ndarray] = [np.empty(0, np.int32)]
        self.primes = PrimeTable(field, np.empty(0, np.int64), np.empty(0, np.int16))
        self._prime_slices: list[slice] = [slice(0, 0)]
        self._masks: dict[tuple, list[np.ndarray]] = {}  # views into one flat buffer
        self.extend_to(max_degree, cap)

    # -- construction -------------------------------------------------

    def extend_to(self, max_degree: int, cap: int | None = None) -> None:
        """Build the degrees up to max_degree; its q^max_degree polynomials
        are checked against the cap even when they are built already."""
        ffield.check_cap(self.field, max_degree, cap)
        for d in range(self.max_degree + 1, max_degree + 1):
            self._build_degree(d)
        self.max_degree = max(self.max_degree, max_degree)

    def _build_degree(self, d: int) -> None:
        field, q = self.field, self.field.q
        size = q**d
        spf = np.full(size, -1, dtype=np.int32)
        e1 = np.zeros(size, dtype=np.int8)
        cof_deg = np.zeros(size, dtype=np.int8)
        cof_idx = np.zeros(size, dtype=_index_dtype(q ** (d - 1)))
        # degree 1 holds only primes; past it, products encode to codes
        powers = _code_powers(field, d) if d > 1 else None
        digit_cache: dict[int, np.ndarray] = {}
        for p_deg in range(1, d // 2 + 1):
            sl = self._prime_slices[p_deg]
            for gid in range(sl.start, sl.stop):
                prime = poly_of_code(field, int(self.primes.codes[gid]))
                w = (1,)
                for e in range(1, d // p_deg + 1):
                    w = ffield.poly_mul(field, w, prime.coeffs)
                    k_deg = d - e * p_deg
                    if k_deg == 0:
                        # h = 1: the prime power itself
                        blocks = [(ffield.code_of(field, w) - size, 0)]
                    elif k_deg < p_deg:
                        continue  # every prime factor of h precedes P
                    else:
                        # cofactors whose smallest prime comes after P
                        sel = np.flatnonzero(self.spf_gid[k_deg] > gid)
                        digits = digit_cache.get(k_deg)
                        if digits is None:
                            digits = digit_cache[k_deg] = _monic_digits(field, k_deg)
                        blocks = _product_indices(digits, sel, _mul_matrix(field, w, k_deg, d),
                                                  field.p, powers, size)
                    for tgt, rows in blocks:
                        spf[tgt] = gid
                        e1[tgt] = e
                        cof_deg[tgt] = k_deg
                        cof_idx[tgt] = rows
        prime_idx = np.flatnonzero(spf < 0)
        start = len(self.primes.codes)
        gids = np.arange(start, start + len(prime_idx), dtype=np.int32)
        spf[prime_idx] = gids
        e1[prime_idx] = 1
        cof_deg[prime_idx] = 0
        cof_idx[prime_idx] = 0
        self.primes = PrimeTable(
            field,
            np.concatenate([self.primes.codes, prime_idx.astype(np.int64) + q**d]),
            np.concatenate([self.primes.prime_deg, np.full(len(prime_idx), d, dtype=np.int16)]),
        )
        self._prime_slices.append(slice(start, start + len(prime_idx)))
        self.spf_gid.append(spf)
        self.e1.append(e1)
        self.cof_deg.append(cof_deg)
        self.cof_idx.append(cof_idx)

    # -- membership masks ---------------------------------------------

    def masks(self, rule, degree: int) -> list[np.ndarray]:
        """Per-degree boolean membership arrays for one family's rule,
        through at least the given degree (at most max_degree).

        rule (a families.MembershipRule) marks the admissible primes by
        rule.admissible(self.primes), from prime_deg, prime_chi2 or
        prime_residues; a polynomial P^e * h (P its smallest prime
        factor) is a member when rule.passes(admissible at P, e) and h is
        one.  Index d of the returned list covers the monic polynomials
        of degree d in code order; index 0 is the constant 1.  The
        degrees are views into one flat buffer, degree k starting at
        q^0 + ... + q^(k-1); a rule's degrees are computed once, in row
        chunks of _CHUNK_ENTRIES polynomials, and a higher degree only
        appends the degrees it adds.
        """
        done = self._masks.get(rule.key, [np.ones(1, dtype=bool)])
        if len(done) > degree:
            return done
        q = self.field.q
        offsets = np.cumsum([0] + [q**k for k in range(degree + 1)])
        flat = np.empty(offsets[-1], dtype=bool)
        ok = [flat[offsets[k] : offsets[k + 1]] for k in range(degree + 1)]
        for old, new in zip(done, ok):
            new[:] = old
        good_prime = rule.admissible(self.primes)
        step = _row_step(1)
        for d in range(len(done), degree + 1):
            for lo in range(0, q**d, step):
                part = slice(lo, lo + step)
                pred = rule.passes(good_prime[self.spf_gid[d][part]], self.e1[d][part])
                cofactor = flat[offsets[self.cof_deg[d][part]] + self.cof_idx[d][part]]
                np.logical_and(pred, cofactor, out=ok[d][part])
        self._masks[rule.key] = ok
        return ok

    def count(self, rule, degree: int) -> int:
        """Exhaustive count of degree-n members under one family's rule;
        the rule's masks are evaluated through that degree only."""
        if degree > self.max_degree:
            self.extend_to(degree)
        if degree == 0:
            return 1
        return int(self.masks(rule, degree)[degree].sum())

    # -- diagnostics ---------------------------------------------------

    def primes_of_degree(self, d: int) -> np.ndarray:
        return self.primes.codes[self._prime_slices[d]]

    def factor_chain(self, degree: int, idx: int) -> list[tuple[int, int]]:
        """Factorization of one polynomial as (prime code, multiplicity) pairs."""
        out = []
        d, i = degree, idx
        while d > 0:
            gid = int(self.spf_gid[d][i])
            out.append((int(self.primes.codes[gid]), int(self.e1[d][i])))
            d, i = int(self.cof_deg[d][i]), int(self.cof_idx[d][i])
        return out


_UNIVERSE_CACHE: dict[tuple, Universe] = {}


def get_universe(field: FieldSpec, max_degree: int, cap: int | None = None) -> Universe:
    """The shared Universe for the field, grown on demand to max_degree.

    extend_to checks the cap on every call, warm or cold; the cap is not
    stored, so one caller's cap never limits another's.
    """
    key = (field.p, field.k, field.modulus)
    uni = _UNIVERSE_CACHE.get(key)
    if uni is None:
        uni = _UNIVERSE_CACHE[key] = Universe(field, max_degree, cap)
    else:
        uni.extend_to(max_degree, cap)
    return uni
