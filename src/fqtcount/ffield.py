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
polynomial, the remainder plan and the residues in universe.  They meet
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
answers the same warm or cold.  Factoring enumerates nothing: its
remainder plan has the fixed limit _MAX_PLAN_DIGITS instead.

Factoring runs one remainder product per degree (the linear algebra
behind Berlekamp, Bell Syst. Tech. J. 46, 1967): f -> f mod P^e is
F_p-linear in the base-p digits of f's coefficients.  The remainder
plan of degree n holds, for every monic prime P with 2 deg P <= n and
every e with e deg P <= n, the digit matrix of that map, so one matrix
product over a batch of polynomials gives every such remainder at once.
The multiplicity of P in f is the largest e whose remainder block is
zero, since P^e | f implies P^(e-1) | f: one reduceat over the plan's
block columns marks the zero blocks, and a second over each prime's
blocks takes the largest zero e (_multiplicities, which irreducibles
reads as well).  What the small prime powers leave has no prime factor
of degree <= n/2, so it is 1 or one prime of degree > n/2.

The array core _factor_rows factors the coefficient rows of one degree
at once: the multiplicity matrix, the product G of the small prime
powers (one batched digit product per (prime, e), over the rows that
have it), and the large prime, by one exact division batched over the
rows that share deg G.  Its guards check that the plan and the
arithmetic agree: G = f when there is no large prime, a zero remainder
and a quotient of degree > n/2 otherwise; each raises ArithmeticError.
factor_many is the object view over it, and families' scalar oracle
reads its arrays directly.

Every batched digit product in the package goes through _digit_product:
factoring's multiplicities and small parts here, the enumeration sieve
and the prime residues mod m in universe, and the unit-group table in
primecounts.
Their matrices come from _digit_rows; their inputs are base-p digit
rows (_digits, or universe's division-free _monic_digits) stored in the
smallest unsigned type that holds p - 1.  One product casts a row chunk
of digits to the matrix's float type and multiplies by BLAS.  That type
is float32 when no digit sum can pass 2^24 and float64 when none can
pass 2^53 (_digit_dtype); past that no BLAS type is exact, and
_digit_dtype raises ResourceLimit.  A remainder plan with no columns
(degree 1) multiplies nothing and takes no type, so linear factoring
works over any p.  A stack of s matrices of one shape (the sieve's
powers P^e of the primes of one degree, from _mul_matrix of s
polynomials) is one product too: their transposes lie end to end, s *
out rows of in digits, which _mul_matrix stores contiguously, and the
codes come back as one row per matrix.  Each entry is the one a single
matrix would give, so every bound below holds for a stack as well.  The
sieve, residues and multiplicities run in row chunks of _row_step(width)
rows, width the larger side of the matrix (s * out for a stack), about
_CHUNK_ENTRIES entries each, so their working memory does not grow with
the batch; the unit-group table (at most primecounts'
_MAX_UNIT_GROUP rows) multiplies all units at once.  The product is
reduced mod p in one of two ways:

* Codes (sieve, residues, unit group): each digit sum c becomes
  c - p * floor(c / p), in place, by true division.  This is exact for
  every integer c <= 2^24 in float32 (c <= 2^53 in float64, with 2^-53
  for 2^-24 below).  If p divides c, c / p is an integer below 2^24 and
  exact.  Otherwise c = kp - j with 1 <= j < p; k - 1 is representable
  and below c / p, so the rounded quotient is at least k - 1, and its
  error is below (c / p) * 2^-24 <= 1 / p <= j / p, so it is below k.
  Its floor is k - 1 either way, and the product and difference after
  it are integers below 2^24.  A multiply by a rounded 1/p has no such
  bound.  The reduced digits of a degree-d polynomial make a code below
  p^((d+1)k) = q^(d+1), so their products with p^j (_code_powers) and
  every partial sum of them are exact in float32 when q^(d+1) <= 2^24
  and in float64 otherwise; only the code vector is cast to int64.  The
  encode is numpy's elementwise multiply and a sum over the digit axis,
  never a BLAS product: a BLAS matrix-vector product of finite float32
  digits (2 to 18 rows of 5) was seen to raise the invalid flag, which
  the tests turn into an error, in one of about 200 fresh processes.
  The product is made transposed, digits by rows, so that the sum adds
  whole contiguous rows.
* Digits (multiplicities' zero tests and factoring's small parts): the
  product is cast to the smallest unsigned type that holds a digit sum
  and reduced there by c - (c // p) * p, which measured faster than the
  float reduce on the plan's wide products.

Scalar arithmetic stays in Python ints, because indexing a numpy table
costs more than the operation itself.  A prime field reduces mod p, so
it builds no q^2-entry structure for scalar work, digit rows or plans;
its chi2 is Euler's criterion and its square_mask squares the q
residues.  An extension field indexes the Python-list rows that _Tables
keeps next to its numpy tables.  Loops that run many divisions
(_powers_of_x_mod) fetch these once per call through _ext_tables; the
batched division of _factor_rows indexes the numpy tables instead.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

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

# Largest remainder plan (rows x columns digits) that factoring builds
_MAX_PLAN_DIGITS = 10**8


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
_IRR_CACHE: dict[tuple[FieldSpec, int], tuple[MonicPoly, ...]] = {}
_PLAN_CACHE: dict[tuple[FieldSpec, int], "_RemainderPlan"] = {}

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
                   powers: np.ndarray | None = None) -> np.ndarray:
    """digits @ matrix reduced mod p, by one BLAS product in the matrix's float type.

    With powers (from _code_powers) the product is made transposed,
    reduced in place in that float type and encoded: the int64 codes are
    returned, one per digit row.  A stack of matrices (shape (s, in,
    out), from _mul_matrix of s polynomials) is one product as well, and
    gives one code row per matrix.  Without powers, the reduced digits
    are returned in the smallest unsigned type that holds a digit sum,
    for zero tests and factoring's small parts.  See the module docstring.
    """
    if powers is None:
        prod = digits.astype(matrix.dtype) @ matrix
        prod = prod.astype(np.min_scalar_type(digits.shape[-1] * (p - 1) ** 2))
        prod -= prod // p * p  # a floor division by a scalar is far cheaper than %
        return prod
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
    shape (..., J*k, L*k).  Multiplication by a fixed polynomial, the
    remainder plan and the residues in universe are all built this way:
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
        raise ResourceLimit(f"q^n = {field.q**n} exceeds cap {cap}")


def irreducibles(field: FieldSpec, n: int, cap: int | None = None) -> tuple[MonicPoly, ...]:
    """Monic irreducibles of degree n in canonical order (cached).

    They are the polynomials of degree n that no prime of degree <= n/2
    divides: the rows of the remainder plan with no zero e = 1 block.
    The cap is checked before the cache, so a capped call answers the
    same whether or not the primes were found before.
    """
    if n < 1:
        raise ValueError("irreducibles have degree >= 1")
    check_cap(field, n, cap)
    key = (field, n)
    cached = _IRR_CACHE.get(key)
    if cached is not None:
        return cached
    rows = _monic_rows(field, n)
    mult = _multiplicities(field, _remainder_plan(field, n), rows)
    result = tuple(MonicPoly(tuple(row)) for row in rows[~mult.any(axis=1)].tolist())
    _IRR_CACHE[key] = result
    return result


class _RemainderPlan(NamedTuple):
    """Digit matrix of f -> (f mod P^e for every small prime power), at one degree.

    There is one block (P, e) for every monic prime P with 2 deg P <= n
    and every e with e deg P <= n, ordered by degree, then prime, then
    rising e; the block is e deg P coefficients, k digits each, wide.
    Row (j, s) of matrix holds the base-p digits of Y^s x^j mod P^e (the
    element Y^s has code p^s), so digits(f) @ matrix reduced mod p is the
    digit vector of every remainder of f.
    """

    degree: int
    primes: tuple[MonicPoly, ...]
    prime_deg: np.ndarray  # deg primes[j], int64
    powers: tuple[tuple[tuple[int, ...], ...], ...]  # powers[j][e-1] = primes[j]^e
    block_cols: np.ndarray  # first column of each block, in column order
    block_e: np.ndarray  # e of each block, int8
    prime_blocks: np.ndarray  # first block of each prime
    matrix: np.ndarray


def _remainder_plan(field: FieldSpec, n: int) -> _RemainderPlan:
    """The remainder plan of degree n (cached by field and degree).

    Each prime power P^e is formed by poly_mul, as the enumeration sieve
    forms its prime powers, and its block is the _digit_rows of the
    scalar rows x^j mod P^e (_powers_of_x_mod).  The size is checked
    before the cache, so a cached plan answers to _MAX_PLAN_DIGITS too.
    """
    rows, cols = _check_plan_size(field, n)
    key = (field, n)
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        return plan
    k = field.k
    # a plan with no columns multiplies nothing, so it needs no exact type
    matrix = np.empty((rows, cols), dtype=_digit_dtype(field, n) if cols else np.float32)
    primes, powers, block_cols, block_e, prime_blocks = [], [], [], [], []
    start = 0
    for d in range(1, n // 2 + 1):
        by_prime = irreducibles(field, d, _MAX_PLAN_DIGITS)
        for P in by_prime:
            power, by_power = (1,), []
            prime_blocks.append(len(block_e))
            for e in range(1, n // d + 1):
                power = poly_mul(field, power, P.coeffs)
                by_power.append(power)
                x_mod = _powers_of_x_mod(field, power, n)
                matrix[:, start : start + e * d * k] = _digit_rows(field, x_mod)
                block_cols.append(start)
                block_e.append(e)
                start += e * d * k
            powers.append(tuple(by_power))
        primes += by_prime
    plan = _RemainderPlan(n, tuple(primes), np.array([P.degree for P in primes], dtype=np.int64),
                          tuple(powers), np.array(block_cols, dtype=np.int64),
                          np.array(block_e, dtype=np.int8), np.array(prime_blocks, dtype=np.int64),
                          matrix)
    _PLAN_CACHE[key] = plan
    return plan


def _check_plan_size(field: FieldSpec, n: int) -> tuple[int, int]:
    """The (rows, cols) of the remainder plan of degree n; ResourceLimit if
    its digits exceed _MAX_PLAN_DIGITS.

    The plan has at least as many digits as every plan of lower degree
    and more than q^d for each d <= n/2, so the irreducibles and plans it
    is built from pass the same limit: which of them are cached does not
    change the answer.
    """
    from .primecounts import pi_q  # primecounts imports this module

    rows = _digit_count(field, n)
    cols = sum(_section_width(field, n, d) * pi_q(field.q, d) for d in range(1, n // 2 + 1))
    if rows * cols > _MAX_PLAN_DIGITS:
        raise ResourceLimit(f"remainder plan of degree {n} over {field} has "
                            f"{rows} x {cols} digits, over the limit {_MAX_PLAN_DIGITS}")
    return rows, cols


def _section_width(field: FieldSpec, n: int, d: int) -> int:
    """Plan columns per prime of degree d: blocks d*k, 2*d*k, ..., (n // d)*d*k wide."""
    top = n // d
    return d * field.k * top * (top + 1) // 2


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


def _monic_rows(field: FieldSpec, n: int) -> np.ndarray:
    """Coefficient rows of every monic polynomial of degree n, in canonical order.

    The order is enumerate_monic's: the coefficient of T^(n-1) varies
    fastest, so row i holds the base-q digits of i, most significant first.
    """
    rows = np.ones((field.q**n, n + 1), dtype=np.int64)
    rows[:, :n] = _digits(np.arange(field.q**n), field.q, n)[:, ::-1]
    return rows


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


def _multiplicities(field: FieldSpec, plan: _RemainderPlan, coeffs: np.ndarray) -> np.ndarray:
    """The (rows, primes) int8 multiplicity of each plan prime in each coefficient row.

    Per row chunk, one digit product gives every remainder block; one
    reduceat marks the zero blocks (P, e), and a second takes the largest
    zero e of each prime, which is its multiplicity since P^e | f implies
    P^(e-1) | f.  Zero everywhere marks a row with no prime factor of
    degree <= n/2.
    """
    matrix, p = plan.matrix, field.p
    mult = np.zeros((len(coeffs), len(plan.primes)), dtype=np.int8)
    if not plan.primes:
        return mult
    step = _row_step(max(matrix.shape))
    for lo in range(0, len(coeffs), step):
        chunk = coeffs[lo : lo + step]
        residue = _digit_product(_digits(chunk, p, field.k).reshape(len(chunk), -1), matrix, p)
        zero = np.maximum.reduceat(residue, plan.block_cols, axis=1) == 0
        mult[lo : lo + step] = np.maximum.reduceat(zero * plan.block_e, plan.prime_blocks, axis=1)
    return mult


class _Factored(NamedTuple):
    """The factorizations of coefficient rows of one degree n, as arrays.

    Row i is prod_j plan.primes[j]^mult[i, j] times its large prime: the
    one prime factor of degree > n/2, whose coefficients large[i] holds
    (zero-padded), or 1, of degree 0, if there is none.
    """

    plan: _RemainderPlan
    mult: np.ndarray  # (rows, primes) int8
    large: np.ndarray  # (rows, n + 1) int64
    large_deg: np.ndarray  # (rows,) int64


def _factor_rows(field: FieldSpec, coeffs: np.ndarray) -> _Factored:
    """Factor (rows, n + 1) int64 coefficient rows of monic polynomials of one degree n >= 1.

    The multiplicities come from the remainder plan (_multiplicities).
    The product G of the small prime powers is built in digit form, one
    batched product per (prime, e) over the rows that have it.  A row
    whose G has degree n must equal G; any other row's quotient by G,
    one exact division batched over the rows of each deg G, is its large
    prime.  A remainder, a quotient of degree <= n/2 or a G of degree > n
    means the plan and the arithmetic disagree and raises ArithmeticError.
    Raises ValueError on a coefficient that is not an element code.
    """
    if coeffs.size and coeffs.max() >= field.q:
        raise ValueError(f"coefficient out of range for {field}")
    rows, n, p, k = len(coeffs), coeffs.shape[1] - 1, field.p, field.k
    plan = _remainder_plan(field, n)
    mult = _multiplicities(field, plan, coeffs)
    # the nonzero multiplicities grouped by (prime, e)
    row_of, prime_of = np.nonzero(mult)
    e_of = mult[row_of, prime_of].astype(np.int64)
    g_deg = np.bincount(row_of, weights=e_of * plan.prime_deg[prime_of], minlength=rows)
    g_deg = g_deg.astype(np.int64)
    if (g_deg > n).any():
        i = int(np.argmax(g_deg > n))
        raise ArithmeticError(f"prime powers of {poly_to_string(tuple(coeffs[i].tolist()))} "
                              f"exceed its degree")
    key = prime_of * (n + 1) + e_of
    order = np.argsort(key, kind="stable")
    key, row_of = key[order], row_of[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    g = np.zeros((rows, _digit_count(field, n)), dtype=np.min_scalar_type(p - 1))
    g[:, 0] = 1
    for lo, hi in zip(starts, starts[1:] + [len(key)]):
        j, e = divmod(int(key[lo]), n + 1)
        sel = row_of[lo:hi]
        in_deg = n - e * int(plan.prime_deg[j])  # deg G stays <= n, so G so far fits
        matrix = _mul_matrix(field, plan.powers[j][e - 1], in_deg, n)
        g[sel] = _digit_product(g[sel, : _digit_count(field, in_deg)], matrix, p)
    g = g.astype(np.int64)
    if k > 1:
        g = g.reshape(rows, n + 1, k) @ p ** np.arange(k, dtype=np.int64)
    whole = g_deg == n
    bad = np.flatnonzero(whole & (g != coeffs).any(axis=1))
    if len(bad):
        f, g_bad = (tuple(a[bad[0]].tolist()) for a in (coeffs, g))
        raise ArithmeticError(f"prime powers of {poly_to_string(f)} multiply "
                              f"to {poly_to_string(g_bad)}")
    large = np.zeros_like(coeffs)
    large[whole, 0] = 1
    # the degrees of G below n (np.unique costs 29 ms and 1.6 MiB on its first call)
    for dg in np.flatnonzero(np.bincount(g_deg[~whole], minlength=n)).tolist():
        sel = np.flatnonzero(g_deg == dg)
        quot, rem = _divide_rows(field, coeffs[sel], g[sel, : dg + 1])
        bad = np.flatnonzero(rem.any(axis=1))
        if len(bad) or 2 * (n - dg) <= n:
            i = sel[bad[0]] if len(bad) else sel[0]
            raise ArithmeticError(f"{poly_to_string(tuple(g[i, : dg + 1].tolist()))} does not "
                                  f"leave a large prime in "
                                  f"{poly_to_string(tuple(coeffs[i].tolist()))}")
        large[sel, : n - dg + 1] = quot
    return _Factored(plan, mult, large, n - g_deg)


def _divide_rows(field: FieldSpec, f: np.ndarray, g: np.ndarray):
    """Quotient and remainder rows of each row of f by the monic row of g beside it.

    Schoolbook division, one quotient coefficient per step for all rows
    at once: mod p in a prime field, by the numpy tables otherwise.
    """
    dg, top = g.shape[1] - 1, f.shape[1] - 1
    rem = f.copy()
    quot = np.zeros((len(f), top - dg + 1), dtype=np.int64)
    t = _ext_tables(field)
    for i in range(top - dg, -1, -1):
        lead = rem[:, i + dg].copy()
        quot[:, i] = lead
        block = rem[:, i : i + dg + 1]
        if t is None:
            block -= lead[:, None] * g
            block %= field.p
        else:
            block[:] = t.add[block, t.neg[t.mul[lead[:, None], g]]]
    return quot, rem[:, :dg]


def factor_many(field: FieldSpec, polys) -> list[Factorization]:
    """Canonical factorizations of monic polynomials of one degree n >= 1.

    The object view of _factor_rows: each row's plan primes in plan
    order, which is canonical, then its large prime if it has one.  Its
    guards raise ArithmeticError.
    """
    polys = list(polys)
    if not polys:
        return []
    n = polys[0].degree
    if any(f.degree != n for f in polys):
        raise ValueError("factor_many needs polynomials of one degree")
    if n < 1:
        raise ValueError("factor requires degree >= 1")
    fac = _factor_rows(field, np.array([f.coeffs for f in polys], dtype=np.int64))
    # the nonzero multiplicities in row-major order: each row's primes in plan order
    row_of, prime_of = np.nonzero(fac.mult)
    pairs = list(zip(map(fac.plan.primes.__getitem__, prime_of.tolist()),
                     fac.mult[row_of, prime_of].tolist()))
    cuts = np.searchsorted(row_of, np.arange(len(polys) + 1)).tolist()
    out = []
    for i, (large, d) in enumerate(zip(fac.large.tolist(), fac.large_deg.tolist())):
        found = tuple(pairs[cuts[i] : cuts[i + 1]])
        if d:
            found += ((MonicPoly(tuple(large[: d + 1])), 1),)
        out.append(Factorization(found))
    return out


def factor(field: FieldSpec, f: MonicPoly) -> Factorization:
    """Canonical factorization of a monic polynomial of degree >= 1."""
    return factor_many(field, [f])[0]


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
