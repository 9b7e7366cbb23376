"""Arithmetic in F_{p^k} and in the monic polynomials over it.

Field elements are encoded as integers in {0, ..., q-1}.  For a prime
field the integer is the residue itself.  For an extension field
F_{p^k} = F_p[Y]/(modulus) the integer a_0 + a_1*p + ... + a_{k-1}*p^{k-1}
encodes the element a_0 + a_1*Y + ... + a_{k-1}*Y^{k-1}; in both cases the
multiplicative identity is encoded by 1.  An element code is thus the
polynomial code (code_of) of its Y-polynomial over the prime field, and
extension fields are built with the prime field's own operations: the
modulus test trial-divides by poly_mod, and _Tables reduces by poly_mod.

Polynomials have two representations.  Coefficient tuples of element
codes carry all scalar arithmetic (poly_mul, poly_divmod).  Base-p digit
matrices carry the batched linear maps: multiplication by a fixed
polynomial and the residue map (_residues).  They meet
in digit_mul, one k x k digit matrix per element c whose row s holds the
digits of Y^s * c; _Tables gets it from the prime field's poly_mod of the
shifted c by the modulus (q*k reductions), and every other table of the
field follows from it by digit products.

Monic polynomials in T are coefficient tuples of element codes, listed
low-to-high with leading coefficient 1.  The canonical order on monic
polynomials of equal degree is lexicographic on that tuple, elements
ordered by their integer codes.

Enumeration, factorization and the quadratic character chi2 (the
character modulo T) live here; they are the substrate for the
brute-force oracles in the rest of the package.

The enumeration cap bounds the q^n monic polynomials of one degree that
a call enumerates.  check_cap reads it live (the caller's cap, else
FQT_CAP, else 10^8) at the entry of every enumeration, before any cache
(here, in universe and in primecounts' class table), so a capped call
answers the same warm or cold.  Factoring enumerates nothing and has
no size limit.

factor splits one polynomial by distinct-degree and equal-degree
(Cantor-Zassenhaus) factorization, in the scalar arithmetic below: a
number of products mod f polynomial in deg f and log q, and no table
that grows with q^deg f.  The one engine that factors every
polynomial of a degree at once is universe's sieve; factor shares no
code with its digit products, so each checks the other.

Every batched digit product in the package goes through _digit_product:
the enumeration sieve in universe, and the one batched residue map
_residues (f -> f r mod M), which serves the prime residues mod m in
universe and the unit-group log tables and residue indices in
characters.  Their matrices come from _digit_rows; their inputs are
base-p digit rows (_digits, or universe's division-free _monic_digits)
stored in the smallest unsigned type that holds p - 1.  One product
casts a row chunk of digits to the matrix's float type and multiplies
by BLAS.  That type is float32 when no digit sum can pass 2^24 and
float64 when none can pass 2^53 (_digit_dtype); past that no BLAS type
is exact, and _digit_dtype raises ResourceLimit.  A stack of s
matrices of one shape (the sieve's powers P^e of the primes of one
degree, from _mul_matrix of s polynomials) is one product too: their
transposes lie end to end, s * out rows of in digits, which _mul_matrix
stores contiguously, and the codes come back as one row per matrix.
Each entry is the one a single matrix would give, so every bound below
holds for a stack as well.  The sieve and the residue map run in row
chunks of _row_step(width) rows, width the larger side of the matrix
(s * out for a stack), about _CHUNK_ENTRIES entries each, so their
working memory does not grow with the batch, characters' products
included.

Each digit sum c of the product becomes c - p * floor(c / p), in place,
by true division.  This is exact for every integer c <= 2^24 in float32
(c <= 2^53 in float64, with 2^-53 for 2^-24 below).  If p divides c,
c / p is an integer below 2^24 and exact.  Otherwise c = kp - j with
1 <= j < p; k - 1 is representable and below c / p, so the rounded
quotient is at least k - 1, and its error is below
(c / p) * 2^-24 <= 1 / p <= j / p, so it is below k.  Its floor is k - 1
either way, and the product and difference after it are integers below
2^24.  A multiply by a rounded 1/p has no such bound.  The reduced
digits of a degree-d polynomial make a code below p^((d+1)k) = q^(d+1),
so their products with p^j (_code_powers) and every partial sum of them
are exact in float32 when q^(d+1) <= 2^24 and in float64 otherwise; only
the code vector is cast to int64.  The encode is numpy's elementwise
multiply and a sum over the digit axis, never a BLAS product: a BLAS
matrix-vector product of finite float32 digits (2 to 18 rows of 5) was
seen to raise the invalid flag, which the tests turn into an error, in
one of about 200 fresh processes.  The product is made transposed,
digits by rows, so that the sum adds whole contiguous rows.

Scalar arithmetic stays in Python ints, because indexing a numpy table
costs more than the operation itself.  A prime field reduces mod p, so
it builds no q^2-entry structure for scalar work or digit rows;
its chi2 is Euler's criterion and its square_mask squares the q
residues.  An extension field indexes the Python-list rows that _Tables
keeps next to its numpy tables.  Loops that run many divisions
(_powers_of_x_mod) fetch these once per call through _ext_tables.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    EvenCharacteristic,
    NonPrime,
    ReducibleModulus,
    ResourceLimit,
)
from .numtheory import _factor, is_prime

DEFAULT_CAP = 10**8

# Largest q for which elementwise add/mul tables are built (q*q entries);
# scalar arithmetic in a prime field needs none.
_MAX_TABLE_Q = 4096


def default_cap() -> int:
    """Enumeration cap: FQT_CAP environment override, else 10**8."""
    raw = os.environ.get("FQT_CAP")
    if raw is None:
        return DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"FQT_CAP must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError("FQT_CAP must be positive")
    return cap


@dataclass(frozen=True)
class FieldSpec:
    """A finite field F_{p^k} with a fixed irreducible modulus.

    The modulus is a coefficient tuple over F_p, low-to-high, of length
    k+1 with leading coefficient 1.  For k=1 it is the polynomial Y,
    which is never used in arithmetic.
    """

    p: int
    k: int
    modulus: tuple[int, ...]

    @property
    def q(self) -> int:
        return self.p**self.k

    def __str__(self) -> str:
        return f"F_{self.q}"


@dataclass(frozen=True, slots=True)
class MonicPoly:
    """A monic polynomial in T: element codes low-to-high, leading 1."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("the zero polynomial is not a MonicPoly")
        if any(not isinstance(c, int) or c < 0 for c in self.coeffs):
            raise ValueError("coefficients must be nonnegative element codes")
        if self.coeffs[-1] != 1:
            raise ValueError("leading coefficient must be 1")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __str__(self) -> str:
        return poly_to_string(self)


@dataclass(frozen=True)
class Factorization:
    """Prime factorization: distinct monic primes with multiplicities.

    Factors are sorted canonically (degree, then coefficient tuple).
    """

    factors: tuple[tuple[MonicPoly, int], ...]

    def expand(self, field: FieldSpec) -> MonicPoly:
        """Multiply the factorization back out."""
        acc = (1,)
        for prime, mult in self.factors:
            for _ in range(mult):
                acc = poly_mul(field, acc, prime.coeffs)
        return MonicPoly(acc)


class _Tables:
    """Elementwise operation tables for one field, built lazily.

    digit_mul[c, s, t] is digit t of Y^s * c (see the module docstring);
    row a of mul is the digit product digits(a) @ digit_mul, mod p.
    """

    def __init__(self, field: FieldSpec):
        q, p, k = field.q, field.p, field.k
        if q > _MAX_TABLE_Q:
            raise ResourceLimit(
                f"field of order {q} exceeds the elementwise-table limit {_MAX_TABLE_Q}"
            )
        fp, p_pows = FieldSpec(p, 1, (0, 1)), p ** np.arange(k)
        digits = np.arange(q)[:, None] // p_pows % p
        self.digit_mul = np.zeros((q, k, k), dtype=np.int64)
        for c, vec in enumerate(map(tuple, digits.tolist())):
            for s in range(k):
                rem = poly_mod(fp, (0,) * s + vec, field.modulus)
                self.digit_mul[c, s, : len(rem)] = rem
        self.add = np.array([(row + digits) % p @ p_pows for row in digits], dtype=np.int32)
        self.mul = np.array([row @ self.digit_mul % p @ p_pows for row in digits], dtype=np.int32)
        self.neg = (-digits % p @ p_pows).astype(np.int32)
        self.inv = np.argmax(self.mul == 1, axis=1).astype(np.int32)
        self.is_square = np.zeros(q, dtype=bool)
        self.is_square[self.mul.diagonal()[1:]] = True
        # scalar loops index these Python lists (see the module docstring)
        self.add_rows = self.add.tolist()
        self.mul_rows = self.mul.tolist()
        self.neg_row = self.neg.tolist()
        self.inv_row = self.inv.tolist()


_TABLE_CACHE: dict[FieldSpec, _Tables] = {}

# batched work runs in row chunks of about this many entries (_row_step),
# so its working memory does not grow with the batch
_CHUNK_ENTRIES = 1 << 17


def tables(field: FieldSpec) -> _Tables:
    """Operation tables for a field (cached)."""
    t = _TABLE_CACHE.get(field)
    if t is None:
        t = _Tables(field)
        _TABLE_CACHE[field] = t
    return t


def _ext_tables(field: FieldSpec) -> _Tables | None:
    """The tables whose rows an extension field's scalar loops index; None if k = 1."""
    return None if field.k == 1 else tables(field)


def _digit_count(field: FieldSpec, degree: int) -> int:
    """Base-p digits of a polynomial of the given degree: k per coefficient."""
    return (degree + 1) * field.k


def _digit_dtype(field: FieldSpec, in_deg: int) -> type:
    """The float type in which digit products with degree <= in_deg inputs are exact.

    A product digit sums at most _digit_count(in_deg) terms, each a
    product of two digits below p, so it is at most that count times
    (p-1)^2; float32 holds every integer up to 2^24 and float64 up to 2^53.
    """
    bound = _digit_count(field, in_deg) * (field.p - 1) ** 2
    if bound <= 1 << 24:
        return np.float32
    if bound <= 1 << 53:
        return np.float64
    raise ResourceLimit(f"digit products of degree {in_deg} over F_{field.q} "
                        "exceed exact float range")


def _digits(codes, p: int, width: int) -> np.ndarray:
    """The width lowest base-p digits of each code, on a new last axis, in
    the smallest unsigned type that holds p - 1."""
    codes = np.asarray(codes, dtype=np.int64)
    out = np.empty(codes.shape + (width,), dtype=np.min_scalar_type(p - 1))
    for j in range(width):
        rest = codes // p  # a floor division by a scalar is far cheaper than %
        out[..., j] = codes - rest * p
        codes = rest
    return out


def _code_powers(field: FieldSpec, degree: int) -> np.ndarray:
    """p^j for each digit j of a polynomial of the given degree, in the
    float type in which its codes, below q^(degree+1), are exact."""
    bound = field.q ** (degree + 1)
    # q^(d+1) > 2^53 needs q^d > 2^35 polynomials of degree d >= 2
    assert bound <= 1 << 53, "codes past 2^53 are past any cap"
    dtype = np.float32 if bound <= 1 << 24 else np.float64
    return (field.p ** np.arange(_digit_count(field, degree), dtype=np.int64)).astype(dtype)


def _row_step(width: int) -> int:
    """Rows per chunk of a batch whose rows hold width entries: about _CHUNK_ENTRIES a chunk."""
    return max(1, _CHUNK_ENTRIES // max(width, 1))


def _digit_product(digits: np.ndarray, matrix: np.ndarray, p: int,
                   powers: np.ndarray) -> np.ndarray:
    """digits @ matrix reduced mod p and encoded, by one BLAS product in the matrix's float type.

    The product is made transposed, reduced in place in that float type
    and encoded with powers (from _code_powers): the int64 codes are
    returned, one per digit row.  A stack of matrices (shape (s, in,
    out), from _mul_matrix of s polynomials) is one product as well, and
    gives one code row per matrix.  See the module docstring.
    """
    # transposed, so that the encode sums whole digit rows, without BLAS;
    # a stack of matrices is one product of their transposes laid end to end
    stacked = np.swapaxes(matrix, -1, -2).reshape(-1, matrix.shape[-2])
    prod = stacked @ digits.T.astype(matrix.dtype)
    quot = prod / p
    np.floor(quot, out=quot)
    quot *= p
    prod -= quot
    prod = prod.astype(powers.dtype, copy=False)
    prod = prod.reshape(*matrix.shape[:-2], len(powers), len(digits))
    prod *= powers[:, None]  # in place: a new array per chunk measured slower
    return prod.sum(axis=-2).astype(np.int64)


def _digit_rows(field: FieldSpec, coeffs: np.ndarray) -> np.ndarray:
    """Digit matrix whose row (j, s) holds the digits of Y^s times row j of coeffs.

    coeffs holds element codes with shape (..., J, L); the result has
    shape (..., J*k, L*k).  Multiplication by a fixed polynomial and the
    residues in universe are both built this way:
    a prime field by placing the codes themselves, an extension field by
    placing the k x k digit matrices of its elements (digit_mul).
    """
    coeffs = np.asarray(coeffs, dtype=np.int64)
    if field.k == 1:
        return coeffs
    blocks = np.swapaxes(tables(field).digit_mul[coeffs], -3, -2)
    *lead, J, k, L, _ = blocks.shape
    return blocks.reshape(*lead, J * k, L * k)


def _is_irreducible(fp: FieldSpec, f: tuple[int, ...]) -> bool:
    """Trial division of a monic f over the prime field fp by every monic of degree <= deg f / 2."""
    return all(poly_mod(fp, f, tail + (1,))
               for d in range(1, (len(f) - 1) // 2 + 1)
               for tail in product(range(fp.p), repeat=d))


def build_field(p: int, k: int = 1, modulus=None) -> FieldSpec:
    """Construct F_{p^k}, selecting the smallest irreducible modulus if none given."""
    if not isinstance(p, int) or not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"extension degree must be a positive integer, got {k}")
    fp = FieldSpec(p, 1, (0, 1))
    if modulus is not None:
        mod = tuple(int(c) for c in modulus)
        if len(mod) != k + 1 or mod[-1] != 1 or any(not 0 <= c < p for c in mod):
            raise ReducibleModulus(
                f"modulus must be monic of degree {k} with coefficients in 0..{p - 1}"
            )
        if not _is_irreducible(fp, mod):
            raise ReducibleModulus(f"modulus {mod} is reducible over F_{p}")
        return FieldSpec(p, k, mod)
    if k == 1:
        return fp
    return next(FieldSpec(p, k, tail + (1,)) for tail in product(range(p), repeat=k)
                if _is_irreducible(fp, tail + (1,)))


def field_for_order(q: int) -> FieldSpec:
    """Construct F_q from the prime-power order q alone."""
    factors = _factor(q) if isinstance(q, int) and q >= 2 else ()
    if len(factors) != 1:
        raise NonPrime(f"{q} is not a prime power")
    (p, k), = factors
    return build_field(p, k)


def element_add(field: FieldSpec, a: int, b: int) -> int:
    if field.k == 1:
        return (a + b) % field.p
    return tables(field).add_rows[a][b]


def element_mul(field: FieldSpec, a: int, b: int) -> int:
    if field.k == 1:
        return a * b % field.p
    return tables(field).mul_rows[a][b]


def element_neg(field: FieldSpec, a: int) -> int:
    if field.k == 1:
        return -a % field.p
    return tables(field).neg_row[a]


def element_inv(field: FieldSpec, a: int) -> int:
    if a == 0:
        raise ZeroDivisionError("inverse of zero field element")
    if field.k == 1:
        return pow(a, -1, field.p)
    return tables(field).inv_row[a]


def validate_poly(field: FieldSpec, f: MonicPoly) -> None:
    if any(c >= field.q for c in f.coeffs):
        raise ValueError(f"coefficient out of range for {field}")


def poly_mul(field: FieldSpec, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Product of two coefficient tuples (not necessarily monic)."""
    out = [0] * (len(a) + len(b) - 1)
    t = _ext_tables(field)
    if t is None:
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        p = field.p
        return tuple(c % p for c in out)
    add = t.add_rows
    for i, ai in enumerate(a):
        if ai:
            mul_a = t.mul_rows[ai]
            for j, bj in enumerate(b):
                out[i + j] = add[out[i + j]][mul_a[bj]]
    return tuple(out)


def poly_divmod(field: FieldSpec, f: tuple[int, ...], g: tuple[int, ...]):
    """Quotient and remainder of f by a monic g; remainder has no leading zeros."""
    if g[-1] != 1:
        raise ValueError("divisor must be monic")
    return _divmod(field.p, _ext_tables(field), f, g)


def _divmod(p: int, t: _Tables | None, f: tuple[int, ...], g: tuple[int, ...]):
    """poly_divmod on prefetched arithmetic: mod p if t is None, else t's rows."""
    f = list(f)
    dg = len(g) - 1
    quot = [0] * max(len(f) - dg, 0)
    while len(f) > dg:
        lead = f.pop()  # g is monic, so this coefficient cancels
        pos = len(f) - dg
        quot[pos] = lead
        if not lead:
            continue
        if t is None:
            for i in range(dg):
                f[pos + i] = (f[pos + i] - lead * g[i]) % p
        else:
            add, times_neg_lead = t.add_rows, t.mul_rows[t.neg_row[lead]]
            for i in range(dg):
                f[pos + i] = add[f[pos + i]][times_neg_lead[g[i]]]
    while f and f[-1] == 0:
        f.pop()
    return tuple(quot), tuple(f)


def poly_mod(field: FieldSpec, f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    return poly_divmod(field, f, g)[1]


def poly_gcd(field: FieldSpec, f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Monic gcd of two coefficient tuples (empty tuple for gcd(0, 0))."""
    a, b = _strip(f), _strip(g)
    while any(b):
        a, b = b, poly_mod_general(field, a, b)
    if not any(a):
        return a
    return _make_monic(field, a)


def poly_mod_general(field: FieldSpec, f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Remainder of f by any nonzero g (g need not be monic)."""
    return poly_mod(field, f, _make_monic(field, _strip(g)))


def _make_monic(field: FieldSpec, f: tuple[int, ...]) -> tuple[int, ...]:
    lead_inv = element_inv(field, f[-1])
    return tuple(element_mul(field, c, lead_inv) for c in f)


def _strip(f: tuple[int, ...]) -> tuple[int, ...]:
    coeffs = list(f)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def enumerate_monic(field: FieldSpec, n: int, cap: int | None = None) -> list[MonicPoly]:
    """All monic polynomials of degree n in canonical order."""
    if n < 0:
        raise ValueError("degree must be nonnegative")
    check_cap(field, n, cap)
    if n == 0:
        return [MonicPoly((1,))]
    return [MonicPoly(tail + (1,)) for tail in product(range(field.q), repeat=n)]


def check_cap(field: FieldSpec, n: int, cap: int | None = None) -> None:
    """Raise ResourceLimit if the q^n monic polynomials of degree n exceed the cap."""
    cap = default_cap() if cap is None else cap
    if field.q**n > cap:
        raise ResourceLimit(f"degree {n}: q^n = {field.q}^{n} exceeds cap {cap}")


def _powers_of_x_mod(field: FieldSpec, modulus: tuple[int, ...], n: int,
                     r: tuple[int, ...] = (1,)) -> np.ndarray:
    """x^j r mod a monic modulus M for j = 0..n (r of degree < deg M, by
    default 1), as element-code rows deg M wide.

    r_{j+1} = x r_j mod M, one shift and one division step per j.
    """
    p, t = field.p, _ext_tables(field)
    out = np.zeros((n + 1, len(modulus) - 1), dtype=np.int64)
    for j in range(n + 1):
        out[j, : len(r)] = r
        r = _divmod(p, t, (0,) + r, modulus)[1]
    return out


def _residues(field: FieldSpec, modulus: tuple[int, ...], codes: np.ndarray, n: int,
              r: tuple[int, ...] = (1,)) -> np.ndarray:
    """Codes of f r mod a monic modulus for the f of degree <= n with the given codes.

    f -> f r mod modulus is F_p-linear in f's digits, with digit rows
    Y^s x^j r mod modulus (_powers_of_x_mod, spread by _digit_rows), so
    one _digit_product per row chunk reduces and encodes them all.  f r
    has degree < n + len(r), so its residue has min(n + len(r),
    deg modulus) coefficients, and the codes are sized by that, not by
    deg modulus: a modulus of high degree encodes exactly.
    """
    width = min(n + len(r), len(modulus) - 1)
    matrix = _digit_rows(field, _powers_of_x_mod(field, modulus, n, r)[:, :width])
    matrix = matrix.astype(_digit_dtype(field, n))
    powers = _code_powers(field, width - 1)
    out = np.empty(len(codes), dtype=np.int64)
    step = _row_step(max(matrix.shape))
    for lo in range(0, len(out), step):
        digits = _digits(codes[lo : lo + step], field.p, _digit_count(field, n))
        out[lo : lo + step] = _digit_product(digits, matrix, field.p, powers)
    return out


def _mul_matrix(field: FieldSpec, w: tuple[int, ...] | list[tuple[int, ...]], in_deg: int,
                out_deg: int) -> np.ndarray:
    """Digit-space matrix of multiplication by the fixed polynomial w.

    Maps digit vectors of polynomials of degree <= in_deg to digit
    vectors of their products with w (degree <= out_deg): row j of the
    coefficient matrix is x^j w, placed by index arithmetic.  w may be a
    sequence of s polynomials of one degree, which gives a stack of s
    matrices.  Each is stored transposed, so _digit_product's transposed
    product reads the stack without a copy.
    """
    w = np.asarray(w, dtype=np.int64)
    coeffs = np.zeros(w.shape[:-1] + (in_deg + 1, out_deg + 1), dtype=np.int64)
    j = np.arange(in_deg + 1)[:, None]
    coeffs[..., j, j + np.arange(w.shape[-1])] = w[..., None, :]
    rows = np.swapaxes(_digit_rows(field, coeffs), -1, -2)
    return np.swapaxes(rows.astype(_digit_dtype(field, in_deg), order="C"), -1, -2)


def factor(field: FieldSpec, f: MonicPoly) -> Factorization:
    """Canonical factorization of a monic polynomial of degree >= 1.

    Distinct-degree splitting (von zur Gathen & Gerhard, Modern Computer
    Algebra, ch. 14): step d sets h = x^(q^d) mod the unfactored rest r,
    the q-th power of the last h.  x^(q^d) - x is the square-free product
    of the monic primes whose degree divides d, and r has no prime of
    degree < d left, so gcd(r, h - x) is the product of r's distinct
    primes of degree d.  _equal_degree splits it, and each of its primes
    is divided out of r as often as it divides, so no square-free split
    is needed.  Once 2d > deg r, r is 1 or a prime.  Raises ValueError
    on a coefficient that is not an element code.
    """
    validate_poly(field, f)
    if f.degree < 1:
        raise ValueError("factor requires degree >= 1")
    minus_x = (0, element_neg(field, 1))
    rng = random.Random(0)  # a fixed seed: the same splitting steps every call
    rest, h, d, found = f.coeffs, (0, 1), 0, []
    while 2 * (d + 1) <= len(rest) - 1:
        d += 1
        h = _pow_mod(field, h, field.q, rest)
        for prime in _equal_degree(field, poly_gcd(field, rest, _poly_add(field, h, minus_x)),
                                   d, rng):
            e = 0
            while not (split := poly_divmod(field, rest, prime))[1]:
                rest, e = split[0], e + 1
            found.append((MonicPoly(prime), e))
        h = poly_mod(field, h, rest)
    if len(rest) > 1:
        found.append((MonicPoly(rest), 1))
    return Factorization(tuple(sorted(found, key=lambda pe: (pe[0].degree, pe[0].coeffs))))


def _equal_degree(field: FieldSpec, g: tuple[int, ...], d: int,
                  rng: random.Random) -> list[tuple[int, ...]]:
    """The monic primes of degree d whose product is the square-free monic g.

    Cantor-Zassenhaus: take a random a of degree < deg g, and
    b = a^((q^d-1)/2) - 1 for odd q, or the trace
    b = a + a^2 + ... + a^(2^(kd-1)) for q = 2^k.  b vanishes modulo each
    prime of g for about half of the residues of a there, independently,
    so gcd(g, b) is a proper factor of g with probability about 1/2 or
    more whenever g has two primes.
    """
    q, primes, todo = field.q, [], [g] if len(g) > 1 else []
    minus_one = (element_neg(field, 1),)
    while todo:
        g = todo.pop()
        if len(g) - 1 == d:
            primes.append(g)
            continue
        a = _strip(tuple(rng.randrange(q) for _ in range(len(g) - 1)))
        if q % 2:
            b = _poly_add(field, _pow_mod(field, a, (q**d - 1) // 2, g), minus_one)
        else:
            b = power = a
            for _ in range(field.k * d - 1):
                power = poly_mod(field, poly_mul(field, power, power), g)
                b = _poly_add(field, b, power)
        u = poly_gcd(field, g, b)
        todo += [u, poly_divmod(field, g, u)[0]] if 1 < len(u) < len(g) else [g]
    return primes


def _pow_mod(field: FieldSpec, a: tuple[int, ...], e: int, g: tuple[int, ...]) -> tuple[int, ...]:
    """a^e mod a monic g, by repeated squaring."""
    out = (1,)
    while e:
        if e & 1:
            out = poly_mod(field, poly_mul(field, out, a), g)
        e >>= 1
        if e:
            a = poly_mod(field, poly_mul(field, a, a), g)
    return out


def _poly_add(field: FieldSpec, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Sum of two coefficient tuples, with no leading zeros."""
    if len(a) < len(b):
        a, b = b, a
    return _strip(tuple(element_add(field, c, b[i]) if i < len(b) else c
                        for i, c in enumerate(a)))


def chi2(field: FieldSpec, f: MonicPoly) -> int:
    """Quadratic character modulo T: the class of f(0) in {-1, 0, +1}."""
    if field.q % 2 == 0:
        raise EvenCharacteristic("chi2 requires odd q")
    validate_poly(field, f)
    c0 = f.coeffs[0]
    if c0 == 0:
        return 0
    if field.k == 1:  # Euler's criterion
        return 1 if pow(c0, (field.q - 1) // 2, field.q) == 1 else -1
    return 1 if bool(square_mask(field)[c0]) else -1


def _chi2_codes(field: FieldSpec, c0: np.ndarray) -> np.ndarray:
    """chi2 of polynomials with int64 constant terms c0, as int8 in {-1, 0, +1}.

    A prime field runs Euler's criterion by repeated squaring mod p,
    exact in int64 while p^2 < 2^63, so it builds nothing of size q; an
    extension field reads its square table.
    """
    if field.k > 1:
        square = tables(field).is_square[c0]
    else:
        p, e = field.p, (field.p - 1) // 2
        power, base = np.ones_like(c0), c0
        while e:
            if e & 1:
                power = power * base % p
            base = base * base % p
            e >>= 1
        square = power == 1
    chi = np.where(square, 1, -1).astype(np.int8)
    chi[c0 == 0] = 0
    return chi


def square_mask(field: FieldSpec) -> np.ndarray:
    """Boolean array over element codes: True at the nonzero squares.

    A prime field squares its q residues, O(q); an extension field reads
    its (q^2-entry) tables.
    """
    if field.k > 1:
        return tables(field).is_square
    idx = np.arange(1, field.q, dtype=np.int64)
    sq = np.zeros(field.q, dtype=bool)
    sq[(idx * idx) % field.q] = True
    return sq


def poly_from_string(field: FieldSpec, s: str, monic: bool = True):
    """Parse a polynomial in T from a string like "T^2+2T+1".

    Coefficients are integer element codes in 0..q-1 (for extension
    fields the code a_0 + a_1*p + ... encodes a_0 + a_1*Y + ...).  A
    constant string like "2" is allowed.  Returns a MonicPoly when monic
    is true, otherwise a plain coefficient tuple.
    """
    text = s.replace(" ", "").replace("-", "+-")
    if text.startswith("+"):
        text = text[1:]
    if not text:
        raise ValueError("empty polynomial string")
    coeff_map: dict[int, int] = {}
    for term in text.split("+"):
        if not term:
            raise ValueError(f"ill-formed polynomial {s!r}")
        negate = term.startswith("-")
        if negate:
            term = term[1:]
        if "T" in term:
            head, _, tail = term.partition("T")
            coeff = 1 if head in ("", "+") else _parse_coeff(field, head, s)
            if tail.startswith("^"):
                power = int(tail[1:])
            elif tail:
                raise ValueError(f"ill-formed polynomial {s!r}")
            else:
                power = 1
        else:
            coeff = _parse_coeff(field, term, s)
            power = 0
        if negate:
            coeff = element_neg(field, coeff)
        if power in coeff_map:
            coeff_map[power] = element_add(field, coeff_map[power], coeff)
        else:
            coeff_map[power] = coeff
    deg = max(coeff_map)
    coeffs = tuple(coeff_map.get(i, 0) for i in range(deg + 1))
    coeffs = _strip(coeffs)
    if not coeffs:
        raise ValueError("polynomial string parses to zero")
    if monic:
        return MonicPoly(coeffs)
    return coeffs


def _parse_coeff(field: FieldSpec, text: str, original: str) -> int:
    try:
        c = int(text)
    except ValueError as exc:
        raise ValueError(f"ill-formed polynomial {original!r}") from exc
    if not 0 <= c < field.q:
        raise ValueError(
            f"coefficient {c} out of range 0..{field.q - 1} in {original!r}"
        )
    return c


def coeffs_of_code(field: FieldSpec, code: int) -> tuple[int, ...]:
    """Coefficients of the polynomial with code sum c_i q^i; (0,) for code 0."""
    coeffs = []
    while code:
        code, c = divmod(code, field.q)
        coeffs.append(c)
    return tuple(coeffs) if coeffs else (0,)


def code_of(field: FieldSpec, coeffs: tuple[int, ...]) -> int:
    """The code sum c_i q^i of a coefficient tuple, inverse to coeffs_of_code."""
    code = 0
    for c in reversed(coeffs):
        code = code * field.q + c
    return code


def poly_to_string(f: MonicPoly | tuple[int, ...]) -> str:
    """Render a coefficient tuple as a string in T."""
    coeffs = f.coeffs if isinstance(f, MonicPoly) else f
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            parts.append(f"{head}T" if i == 1 else f"{head}T^{i}")
    return "+".join(parts) if parts else "0"
