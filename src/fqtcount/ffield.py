"""Arithmetic in F_{p^k} and in the monic polynomials over it.

Field elements are encoded as integers in {0, ..., q-1}.  For a prime
field the integer is the residue itself.  For an extension field
F_{p^k} = F_p[Y]/(modulus) the integer a_0 + a_1*p + ... + a_{k-1}*p^{k-1}
encodes the element a_0 + a_1*Y + ... + a_{k-1}*Y^{k-1}; in both cases the
multiplicative identity is encoded by 1.

Monic polynomials in T are coefficient tuples of element codes, listed
low-to-high with leading coefficient 1.  The canonical order on monic
polynomials of equal degree is lexicographic on that tuple, elements
ordered by their integer codes.

Enumeration, trial-division factorization and the quadratic character
chi2 (the character modulo T) live here; they are the substrate for the
brute-force oracles in the rest of the package.

Scalar arithmetic stays in Python ints, because indexing a numpy table
costs more than the operation itself.  A prime field reduces mod p,
which is how _Tables defines its tables for k = 1, so it builds no
q^2-entry structure for scalar work; its chi2 is Euler's criterion and
its square_mask squares the q residues.  An extension field indexes the
Python-list rows that _Tables keeps next to its numpy tables.  Loops
that run many divisions (factor, irreducibles) fetch these once per
call through _ext_tables.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import (
    EvenCharacteristic,
    NonPrime,
    ReducibleModulus,
    ResourceLimit,
)
from .numtheory import is_prime

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
    """Elementwise operation tables for one field, built lazily."""

    def __init__(self, field: FieldSpec):
        q, p, k = field.q, field.p, field.k
        if q > _MAX_TABLE_Q:
            raise ResourceLimit(
                f"field of order {q} exceeds the elementwise-table limit {_MAX_TABLE_Q}"
            )
        if k == 1:
            idx = np.arange(q, dtype=np.int64)
            self.add = ((idx[:, None] + idx[None, :]) % p).astype(np.int32)
            self.mul = ((idx[:, None] * idx[None, :]) % p).astype(np.int32)
        else:
            vecs = [_code_to_vec(c, p, k) for c in range(q)]
            add = np.zeros((q, q), dtype=np.int32)
            mul = np.zeros((q, q), dtype=np.int32)
            mod = list(field.modulus)
            for a in range(q):
                for b in range(a, q):
                    s = _vec_to_code([(x + y) % p for x, y in zip(vecs[a], vecs[b])], p)
                    add[a, b] = add[b, a] = s
                    prod = _fp_polymul(p, vecs[a], vecs[b])
                    prod = _fp_polymod(p, prod, mod)
                    m = _vec_to_code(prod + [0] * (k - len(prod)), p)
                    mul[a, b] = mul[b, a] = m
            self.add = add
            self.mul = mul
        self.neg = np.array([int(np.where(self.add[a] == 0)[0][0]) for a in range(q)],
                            dtype=np.int32)
        inv = np.zeros(q, dtype=np.int32)
        for a in range(1, q):
            inv[a] = int(np.where(self.mul[a] == 1)[0][0])
        self.inv = inv
        sq = np.zeros(q, dtype=bool)
        for a in range(1, q):
            sq[self.mul[a, a]] = True
        self.is_square = sq
        if k > 1:
            # scalar loops index these Python lists (see the module docstring)
            self.add_rows = self.add.tolist()
            self.mul_rows = self.mul.tolist()
            self.neg_row = self.neg.tolist()
            self.inv_row = self.inv.tolist()


_TABLE_CACHE: dict[FieldSpec, _Tables] = {}
_IRR_CACHE: dict[tuple[FieldSpec, int], tuple[MonicPoly, ...]] = {}


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


def _code_to_vec(code: int, p: int, k: int) -> list[int]:
    vec = []
    for _ in range(k):
        code, r = divmod(code, p)
        vec.append(r)
    return vec


def _vec_to_code(vec, p: int) -> int:
    code = 0
    for c in reversed(vec):
        code = code * p + c
    return code


def _fp_polymul(p: int, a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _fp_polymod(p: int, f: list[int], g: list[int]) -> list[int]:
    # g monic; returns f mod g, trailing zeros stripped
    f = list(f)
    dg = len(g) - 1
    while len(f) > dg:
        lead = f[-1]
        if lead:
            for i in range(dg + 1):
                f[len(f) - 1 - dg + i] = (f[len(f) - 1 - dg + i] - lead * g[i]) % p
        f.pop()
    while f and f[-1] == 0:
        f.pop()
    return f


def _fp_is_irreducible(p: int, coeffs: list[int]) -> bool:
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in product(range(p), repeat=d):
            g = list(tail) + [1]
            if not _fp_polymod(p, coeffs, g):
                return False
    return True


def build_field(p: int, k: int = 1, modulus=None) -> FieldSpec:
    """Construct F_{p^k}, selecting the smallest irreducible modulus if none given."""
    if not isinstance(p, int) or not is_prime(p):
        raise NonPrime(f"{p} is not prime")
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"extension degree must be a positive integer, got {k}")
    if modulus is not None:
        mod = tuple(int(c) for c in modulus)
        if len(mod) != k + 1 or mod[-1] != 1 or any(not 0 <= c < p for c in mod):
            raise ReducibleModulus(
                f"modulus must be monic of degree {k} with coefficients in 0..{p - 1}"
            )
        if not _fp_is_irreducible(p, list(mod)):
            raise ReducibleModulus(f"modulus {mod} is reducible over F_{p}")
        return FieldSpec(p, k, mod)
    if k == 1:
        return FieldSpec(p, 1, (0, 1))
    for tail in product(range(p), repeat=k):
        cand = list(tail) + [1]
        if _fp_is_irreducible(p, cand):
            return FieldSpec(p, k, tuple(cand))
    raise ReducibleModulus(f"no irreducible of degree {k} over F_{p}")  # unreachable


def field_for_order(q: int) -> FieldSpec:
    """Construct F_q from the prime-power order q alone."""
    if not isinstance(q, int) or q < 2:
        raise NonPrime(f"{q} is not a prime power")
    p = 2
    n = q
    while p * p <= n:
        if n % p == 0:
            break
        p += 1
    else:
        p = n
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    if n != 1:
        raise NonPrime(f"{q} is not a prime power")
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
    cap = default_cap() if cap is None else cap
    q = field.q
    if q**n > cap:
        raise ResourceLimit(f"q^n = {q**n} exceeds cap {cap}")
    if n == 0:
        return [MonicPoly((1,))]
    return [MonicPoly(tail + (1,)) for tail in product(range(q), repeat=n)]


def irreducibles(field: FieldSpec, n: int, cap: int | None = None) -> tuple[MonicPoly, ...]:
    """Monic irreducibles of degree n in canonical order (cached)."""
    key = (field, n)
    cached = _IRR_CACHE.get(key)
    if cached is not None:
        return cached
    if n < 1:
        raise ValueError("irreducibles have degree >= 1")
    if n == 1:
        result = tuple(enumerate_monic(field, 1, cap))
    else:
        p, t = field.p, _ext_tables(field)
        smaller = [irreducibles(field, d, cap) for d in range(1, n // 2 + 1)]
        result = tuple(
            f for f in enumerate_monic(field, n, cap)
            if not any(
                not _divmod(p, t, f.coeffs, g.coeffs)[1]
                for degree_list in smaller for g in degree_list
            )
        )
    _IRR_CACHE[key] = result
    return result


def is_irreducible(field: FieldSpec, f: MonicPoly, cap: int | None = None) -> bool:
    """Trial-division irreducibility test."""
    if f.degree < 1:
        return False
    for d in range(1, f.degree // 2 + 1):
        for g in irreducibles(field, d, cap):
            if not poly_mod(field, f.coeffs, g.coeffs):
                return False
    return True


def factor(field: FieldSpec, f: MonicPoly, cap: int | None = None) -> Factorization:
    """Canonical factorization of a monic polynomial of degree >= 1."""
    validate_poly(field, f)
    if f.degree < 1:
        raise ValueError("factor requires degree >= 1")
    p, t = field.p, _ext_tables(field)
    rest = f.coeffs
    found: list[tuple[MonicPoly, int]] = []
    d = 1
    while 2 * d <= len(rest) - 1:
        for prime in irreducibles(field, d, cap):
            if 2 * d > len(rest) - 1:
                break
            mult = 0
            while True:
                quot, rem = _divmod(p, t, rest, prime.coeffs)
                if rem:
                    break
                rest = quot
                mult += 1
            if mult:
                found.append((prime, mult))
        d += 1
    if len(rest) > 1:
        found.append((MonicPoly(rest), 1))
    found.sort(key=lambda pm: (pm[0].degree, pm[0].coeffs))
    return Factorization(tuple(found))


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
