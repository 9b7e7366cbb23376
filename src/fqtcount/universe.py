"""Bulk enumeration oracle: factor every monic polynomial at once.

A monic polynomial of degree d over F_q is identified with an integer
code sum c_i q^i (leading term q^d included), so the q^d polynomials of
degree d map to the index range 0..q^d-1.  For each degree this module
records, per polynomial: its smallest prime factor (as an index into a
global prime list), that prime's exact multiplicity, and the position
of the coprime cofactor.  A family's membership rule (families.
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
fixed polynomial is a matrix product (_mul_matrix).  The sieve makes
one pass per (prime degree j, e), not one per (P, e): the powers P^e of
the degree-j primes form one stack of matrices, taken in sub-slices of
_row_step(in digits * out digits) primes, so a stack holds about
_CHUNK_ENTRIES entries (Universe._products).  The cofactors h of a
sub-slice with gids lo..hi-1 are split by their smallest prime factor:

* spf(h) >= hi: h pairs with every prime of the sub-slice, and its
  products are scattered by broadcasting the gids against them;
* lo < spf(h) < hi: h pairs with the primes before spf(h).  Only these
  rows are multiplied by the whole stack and masked by gid(P) < spf(h);
* spf(h) <= lo: h pairs with none of them.

Each part runs on row chunks (_product_indices): a chunk is gathered
from the stored digits by np.take, then multiplied by the stack,
reduced mod p and encoded by one ffield._digit_product, one code row
per prime; its exactness proof and chunk rule (_row_step) are in
ffield's docstring.  So the sieve's transient memory is one stack and
one chunk, not q^(d-1) rows.  The cofactor digits of each degree come
from _monic_digits, which writes the monic range without a division,
in the same unsigned type as ffield._digits; they are built once per
_build_degree call and dropped with it.

A cofactor is stored as cof_pos, its position in the all-degrees flat
layout: degree k starts at q^0 + ... + q^(k-1) (_flat_offsets), so
position 0 is the constant 1.  masks reads a cofactor's mask with one
gather at that position, and factor_chain decodes it back to (degree,
index).  A degree-d position is below q^0 + ... + q^(d-1) < q^d, so
cof_pos is int32 whenever that is <= 2^31 (_index_dtype), which the
default cap of 10^8 always meets, and int64 past it.  e1 starts at 1
and is written only for e >= 2; cof_pos starts at 0 and is never
written for primes and prime powers, whose cofactor is 1.

A rule's membership masks (masks) are kept per rule as views into one
flat buffer, and are evaluated only through the degree count asks for,
in row chunks of _row_step(1) polynomials.  When a higher degree is
asked (the oracles count n = 0, 1, ... in turn, one degree more each
time), the computed degrees are copied into a longer buffer and only
the new degrees are evaluated.

The per-prime values a membership rule reads (degree, chi2, residue
mod m) live on a PrimeTable of prime codes.  The Universe holds one for
its primes, and families.membership_oracle builds one for the primes
that ffield.factor finds, so both oracles read them from one place.
Residues mod m (for the progression family) come from the package's one
batched residue map, ffield._residues, in row chunks of the primes as in
the sieve.

One Universe per field is shared (get_universe) and only grows.
extend_to checks the requested degree against the live enumeration cap
(ffield.check_cap) even when it is built already; no cap is stored.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from . import ffield
from .errors import EvenCharacteristic
from .ffield import (
    FieldSpec,
    MonicPoly,
    _code_powers,
    _digit_count,
    _digit_product,
    _mul_matrix,
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


def _flat_offsets(q: int, degree: int) -> list[int]:
    """Where each degree 0..degree starts in the all-degrees flat layout:
    degree k starts at q^0 + ... + q^(k-1)."""
    return list(accumulate((q**k for k in range(degree)), initial=0))


def _product_indices(digits: np.ndarray, sel: np.ndarray, matrix: np.ndarray,
                     p: int, powers: np.ndarray, size: int):
    """Yield (target indices, cofactor rows) per row chunk of the selected cofactors.

    Each chunk of sel is gathered from the stored digits and encoded by
    one _digit_product, one target row per matrix of the stack; the
    target index is the product's code less size.
    """
    step = _row_step(matrix.size // matrix.shape[-2])  # the product's entries per row
    for lo in range(0, len(sel), step):
        rows = sel[lo : lo + step]
        tgt = _digit_product(np.take(digits, rows, axis=0), matrix, p, powers)
        tgt -= size  # in place: a new array per chunk measured slower
        yield tgt, rows


class PrimeTable:
    """Monic primes by code, with the per-prime values a membership rule reads.

    codes are polynomial codes (leading term included) in int64 and
    prime_deg their degrees; prime_chi2() and prime_residues(m) are
    computed once per table.  A Universe holds one for its primes (a new
    one per degree built), and families.membership_oracle one for the
    primes of one factorization, so both oracles read the same per-prime
    values.
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
        """Residue code of each prime modulo m, by ffield._residues."""
        cached = self._residues.get(m.coeffs)
        if cached is None:
            n = int(self.prime_deg.max(initial=0))
            cached = self._residues[m.coeffs] = ffield._residues(self.field, m.coeffs,
                                                                 self.codes, n)
        return cached


class Universe:
    """Smallest-prime-factor tables for all monic polynomials up to a degree."""

    def __init__(self, field: FieldSpec, max_degree: int, cap: int | None = None):
        self.field = field
        self.max_degree = 0
        # per degree d >= 1, arrays of length q^d
        self.spf_gid: list[np.ndarray] = [np.empty(0, np.int32)]
        self.e1: list[np.ndarray] = [np.empty(0, np.int8)]
        self.cof_pos: list[np.ndarray] = [np.empty(0, np.int32)]
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
        offsets = _flat_offsets(q, d)
        spf = np.full(size, -1, dtype=np.int32)
        e1 = np.ones(size, dtype=np.int8)
        cof_pos = np.zeros(size, dtype=_index_dtype(offsets[d]))
        # degree 1 holds only primes; past it, products encode to codes
        powers = _code_powers(field, d) if d > 1 else None
        digit_cache: dict[int, np.ndarray] = {}
        for p_deg in range(1, d // 2 + 1):
            sl = self._prime_slices[p_deg]
            primes = [ffield.coeffs_of_code(field, c) for c in self.primes.codes[sl].tolist()]
            ws = primes
            for e in range(1, d // p_deg + 1):
                if e > 1:
                    ws = [ffield.poly_mul(field, w, prime) for w, prime in zip(ws, primes)]
                k_deg = d - e * p_deg
                if k_deg == 0:
                    # h = 1: the prime powers themselves (e >= 2, as p_deg <= d/2)
                    tgt = np.array([ffield.code_of(field, w) for w in ws], dtype=np.int64) - size
                    spf[tgt] = np.arange(sl.start, sl.stop)
                    e1[tgt] = e
                    continue
                if k_deg < p_deg:
                    continue  # every prime factor of h precedes P
                digits = digit_cache.get(k_deg)
                if digits is None:
                    digits = digit_cache[k_deg] = _monic_digits(field, k_deg)
                for gid, tgt, rows in self._products(d, ws, sl.start, k_deg, digits, powers):
                    spf[tgt] = gid
                    if e > 1:
                        e1[tgt] = e
                    cof_pos[tgt] = rows + offsets[k_deg]
        prime_idx = np.flatnonzero(spf < 0)
        start = len(self.primes.codes)
        spf[prime_idx] = np.arange(start, start + len(prime_idx), dtype=np.int32)
        self.primes = PrimeTable(
            field,
            np.concatenate([self.primes.codes, prime_idx.astype(np.int64) + q**d]),
            np.concatenate([self.primes.prime_deg, np.full(len(prime_idx), d, dtype=np.int16)]),
        )
        self._prime_slices.append(slice(start, start + len(prime_idx)))
        self.spf_gid.append(spf)
        self.e1.append(e1)
        self.cof_pos.append(cof_pos)

    def _products(self, d: int, ws: list, gid0: int, k_deg: int, digits: np.ndarray,
                  powers: np.ndarray):
        """Yield (gids, target indices, cofactor rows) for the products w * h of
        degree d, w = ws[i] the power of the prime gid0 + i and h of degree
        k_deg with a smallest prime after it.

        The primes run in sub-slices of one stacked matrix each (about
        _CHUNK_ENTRIES entries); gids broadcast against the targets.
        """
        field, spf_h = self.field, self.spf_gid[k_deg]
        p, size = field.p, field.q**d
        step = _row_step(_digit_count(field, k_deg) * _digit_count(field, d))
        for lo in range(gid0, gid0 + len(ws), step):
            hi = min(lo + step, gid0 + len(ws))
            gids = np.arange(lo, hi, dtype=np.int32)[:, None]
            matrix = _mul_matrix(field, ws[lo - gid0 : hi - gid0], k_deg, d)
            # h whose smallest prime comes after the sub-slice pairs with all of it
            full = np.flatnonzero(spf_h >= hi)
            for tgt, rows in _product_indices(digits, full, matrix, p, powers, size):
                yield gids, tgt, rows
            # h whose smallest prime lies inside it pairs with the primes before that
            inside = np.flatnonzero((spf_h > lo) & (spf_h < hi))
            for tgt, rows in _product_indices(digits, inside, matrix, p, powers, size):
                pair, col = np.nonzero(gids < spf_h[rows])
                yield gids[pair, 0], tgt[pair, col], rows[col]

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
        offsets = _flat_offsets(self.field.q, degree + 1)
        flat = np.empty(offsets[-1], dtype=bool)
        ok = [flat[offsets[k] : offsets[k + 1]] for k in range(degree + 1)]
        for old, new in zip(done, ok):
            new[:] = old
        good_prime = rule.admissible(self.primes)
        step = _row_step(1)
        for d in range(len(done), degree + 1):
            for lo in range(0, len(ok[d]), step):
                part = slice(lo, lo + step)
                pred = rule.passes(good_prime[self.spf_gid[d][part]], self.e1[d][part])
                np.logical_and(pred, flat[self.cof_pos[d][part]], out=ok[d][part])
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
        """Factorization of one polynomial as (prime code, multiplicity) pairs;
        each cofactor's flat position is decoded to its degree and index."""
        offsets = _flat_offsets(self.field.q, degree)
        out = []
        d, i = degree, idx
        while d > 0:
            gid = int(self.spf_gid[d][i])
            out.append((int(self.primes.codes[gid]), int(self.e1[d][i])))
            pos = int(self.cof_pos[d][i])
            d = bisect_right(offsets, pos) - 1
            i = pos - offsets[d]
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
