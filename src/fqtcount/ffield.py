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

Factoring runs one remainder product per degree (the linear algebra
behind Berlekamp, Bell Syst. Tech. J. 46, 1967): f -> f mod P^e is
F_p-linear in the base-p digits of f's coefficients.  The remainder
plan of degree n holds, for every monic prime P with 2 deg P <= n and
every e with e deg P <= n, the digit matrix of that map, so one matrix
product over a batch of polynomials gives every such remainder at once.
The multiplicity of P in f is the largest e whose remainder block is
zero, since P^e | f implies P^(e-1) | f.  What the small prime powers
leave has no prime factor of degree <= n/2, so it is 1 or one prime of
degree > n/2; it comes from one exact division, whose remainder check
is the guard that the plan and the arithmetic agree.  The product runs
in row chunks of about _CHUNK_ENTRIES entries, in the first of float32,
float64 and int64 in which it is exact (_digit_dtype).  The enumeration
sieve in universe builds its multiplication matrices, and its prime
residues mod m, with the same digit helper (_digit_rows).

Scalar arithmetic stays in Python ints, because indexing a numpy table
costs more than the operation itself.  A prime field reduces mod p, so
it builds no q^2-entry structure for scalar work, digit rows or plans;
its chi2 is Euler's criterion and its square_mask squares the q
residues.  An extension field indexes the Python-list rows that _Tables
keeps next to its numpy tables.  Loops that run many divisions
(factor_many, _powers_of_x_mod) fetch these once per call through
_ext_tables.
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


@dataclass(frozen=True)
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

# factor_many multiplies digit rows by the plan in chunks of about this
# many product entries, so its working memory does not grow with the batch
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
    """The type in which digit products with degree <= in_deg inputs are exact.

    A product digit sums at most _digit_count(in_deg) terms, each a
    product of two digits below p, so it is at most that count times
    (p-1)^2; float32 holds every integer up to 2^24, float64 up to 2^53
    and int64 up to 2^63 - 1 (without BLAS, so it comes last).
    """
    bound = _digit_count(field, in_deg) * (field.p - 1) ** 2
    if bound <= 1 << 24:
        return np.float32
    if bound <= 1 << 53:
        return np.float64
    if bound < 1 << 63:
        return np.int64
    raise ResourceLimit(f"digit products of degree {in_deg} over F_{field.q} "
                        "exceed exact integer range")


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
    if n > 1:
        _check_plan_cap(field, n, cap)
    key = (field, n)
    cached = _IRR_CACHE.get(key)
    if cached is not None:
        return cached
    polys = enumerate_monic(field, n, cap)
    if n == 1:
        result = tuple(polys)
    else:
        plan = _remainder_plan(field, n, cap)
        result = tuple(
            polys[lo + i]
            for lo, mult in _multiplicity_chunks(field, plan, polys)
            for i in np.flatnonzero(~mult.any(axis=1)).tolist()
        )
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
    powers: tuple[tuple[tuple[int, ...], ...], ...]  # powers[j][e-1] = primes[j]^e
    sections: tuple[tuple[int, int], ...]  # (prime degree, number of primes), in column order
    matrix: np.ndarray


def _remainder_plan(field: FieldSpec, n: int, cap: int | None = None) -> _RemainderPlan:
    """The remainder plan of degree n (cached by field and degree).

    Each prime power P^e is formed by poly_mul, as the enumeration sieve
    forms its prime powers, and its block is the _digit_rows of the
    scalar rows x^j mod P^e (_powers_of_x_mod).  The cap is checked
    before the cache, as in irreducibles.
    """
    rows, cols = _check_plan_cap(field, n, cap)
    key = (field, n)
    plan = _PLAN_CACHE.get(key)
    if plan is not None:
        return plan
    k = field.k
    dtype = _digit_dtype(field, n)
    matrix = np.empty((rows, cols), dtype=dtype)
    primes, powers, sections = [], [], []
    start = 0
    for d in range(1, n // 2 + 1):
        by_prime = irreducibles(field, d, cap)
        for P in by_prime:
            power, by_power = (1,), []
            for e in range(1, n // d + 1):
                power = poly_mul(field, power, P.coeffs)
                by_power.append(power)
                x_mod = _powers_of_x_mod(field, power, n)
                matrix[:, start : start + e * d * k] = _digit_rows(field, x_mod)
                start += e * d * k
            powers.append(tuple(by_power))
        primes += by_prime
        sections.append((d, len(by_prime)))
    plan = _RemainderPlan(n, tuple(primes), tuple(powers), tuple(sections), matrix)
    _PLAN_CACHE[key] = plan
    return plan


def _check_plan_cap(field: FieldSpec, n: int, cap: int | None = None) -> tuple[int, int]:
    """The (rows, cols) of the remainder plan of degree n; ResourceLimit if
    its digits exceed the cap.

    The plan has at least as many digits as every plan of lower degree
    and more than q^d for each d <= n/2, so the irreducibles and plans it
    is built from pass the same cap: which of them are cached does not
    change the answer.
    """
    from .primecounts import pi_q  # primecounts imports this module

    cap = default_cap() if cap is None else cap
    rows = _digit_count(field, n)
    cols = sum(_section_width(field, n, d) * pi_q(field.q, d) for d in range(1, n // 2 + 1))
    if rows * cols > cap:
        raise ResourceLimit(f"remainder plan of degree {n} over {field} has "
                            f"{rows} x {cols} digits, over cap {cap}")
    return rows, cols


def _section_width(field: FieldSpec, n: int, d: int) -> int:
    """Plan columns per prime of degree d: blocks d*k, 2*d*k, ..., (n // d)*d*k wide."""
    top = n // d
    return d * field.k * top * (top + 1) // 2


def _powers_of_x_mod(field: FieldSpec, modulus: tuple[int, ...], n: int) -> np.ndarray:
    """x^j mod a monic modulus M for j = 0..n, as element-code rows deg M wide.

    r_{j+1} = x r_j mod M, one shift and one division step per j.
    """
    p, t = field.p, _ext_tables(field)
    out = np.zeros((n + 1, len(modulus) - 1), dtype=np.int64)
    r = (1,)
    for j in range(n + 1):
        out[j, : len(r)] = r
        r = _divmod(p, t, (0,) + r, modulus)[1]
    return out


def _multiplicity_chunks(field: FieldSpec, plan: _RemainderPlan, polys: list[MonicPoly]):
    """Yield (first row, multiplicities) per row chunk of polynomials of the plan's degree.

    The multiplicity of P in f is the largest e whose block of
    digits(f) @ matrix is zero mod p, since P^e | f implies P^(e-1) | f.
    A chunk's product has about _CHUNK_ENTRIES entries.  Raises
    ValueError on a coefficient that is not an element code.
    """
    matrix, n, k, p = plan.matrix, plan.degree, field.k, field.p
    bound = _digit_count(field, n) * (p - 1) ** 2  # see _digit_dtype
    exact_int = next(t for t in (np.uint8, np.uint16, np.uint32, np.int64)
                     if bound <= np.iinfo(t).max)
    step = max(1, _CHUNK_ENTRIES // max(matrix.shape[1], 1))
    for lo in range(0, len(polys), step):
        digits = np.array([f.coeffs for f in polys[lo : lo + step]], dtype=np.int64)
        if digits.max() >= field.q:
            raise ValueError(f"coefficient out of range for {field}")
        rows = len(digits)
        if k > 1:
            digits = (digits[:, :, None] // p ** np.arange(k, dtype=np.int64) % p).reshape(rows, -1)
        residue = (digits.astype(matrix.dtype) @ matrix).astype(exact_int)
        residue -= residue // p * p  # a floor division by a scalar is far cheaper than %
        mult = np.zeros((rows, len(plan.primes)), dtype=np.int8)
        col = first = 0
        for d, m in plan.sections:
            width = _section_width(field, n, d)
            section = residue[:, col : col + m * width].reshape(rows, m, width)
            off = 0
            for e in range(1, n // d + 1):
                zero = ~section[:, :, off : off + e * d * k].any(axis=2)
                np.copyto(mult[:, first : first + m], e, where=zero)  # rising e: largest wins
                off += e * d * k
            col += m * width
            first += m
        yield lo, mult


def factor_many(field: FieldSpec, polys, cap: int | None = None) -> list[Factorization]:
    """Canonical factorizations of monic polynomials of one degree n >= 1.

    One digit product against the remainder plan of degree n gives the
    multiplicity of every prime of degree <= n/2.  When those prime
    powers fall short of degree n, the exact quotient of f by their
    product is the one prime factor of degree > n/2; a nonzero remainder,
    or a quotient of degree <= n/2, means the plan and the arithmetic
    disagree and raises ArithmeticError.
    """
    polys = list(polys)
    if not polys:
        return []
    n = polys[0].degree
    if any(f.degree != n for f in polys):
        raise ValueError("factor_many needs polynomials of one degree")
    if n < 1:
        raise ValueError("factor requires degree >= 1")
    plan = _remainder_plan(field, n, cap)
    p, t = field.p, _ext_tables(field)
    # multiplicity row -> its sorted factors, their product and their Factorization
    by_row: dict[bytes, tuple] = {}
    by_pairs: dict[tuple, tuple] = {}
    out: list[Factorization] = []
    for lo, mult in _multiplicity_chunks(field, plan, polys):
        keys = (mult.view(np.dtype((np.void, mult.shape[1]))).ravel().tolist()
                if mult.shape[1] else [b""] * len(mult))
        for i, key in enumerate(keys):
            part = by_row.get(key)
            if part is None:
                pairs = tuple((j, e) for j, e in enumerate(mult[i].tolist()) if e)
                found, g = _small_part(field, plan, pairs, by_pairs)
                found = tuple(sorted(found, key=_canonical_key))
                part = by_row[key] = (found, g, Factorization(found))
            found, g, whole = part
            f = polys[lo + i].coeffs
            if len(g) == len(f):
                if g != f:
                    raise ArithmeticError(f"prime powers of {poly_to_string(f)} multiply "
                                          f"to {poly_to_string(g)}")
                out.append(whole)
                continue
            quot, rem = _divmod(p, t, f, g)
            if rem or 2 * (len(quot) - 1) <= n:
                raise ArithmeticError(f"{poly_to_string(g)} does not leave a large prime "
                                      f"in {poly_to_string(f)}")
            out.append(Factorization(found + ((MonicPoly(quot), 1),)))
    return out


def _canonical_key(pm: tuple[MonicPoly, int]):
    return pm[0].degree, pm[0].coeffs


def _small_part(field: FieldSpec, plan: _RemainderPlan, pairs: tuple, memo: dict):
    """The (prime, e) factors named by (plan index, e) pairs, and their product.

    Built on the part of pairs[:-1] (memoized), so each new part costs one product.
    """
    part = memo.get(pairs)
    if part is None:
        if not pairs:
            return (), (1,)
        head, g = _small_part(field, plan, pairs[:-1], memo)
        j, e = pairs[-1]
        part = memo[pairs] = (head + ((plan.primes[j], e),),
                              poly_mul(field, g, plan.powers[j][e - 1]))
    return part


def factor(field: FieldSpec, f: MonicPoly, cap: int | None = None) -> Factorization:
    """Canonical factorization of a monic polynomial of degree >= 1."""
    return factor_many(field, [f], cap)[0]


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
