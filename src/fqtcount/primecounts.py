"""Exact tables of irreducible-polynomial and place counts.

Four kinds of counts, all exact integers:

* ``pi_q(q, n)``: monic irreducibles of degree n over F_q, by Moebius
  inversion of the divisor-sum identity sum_{d | n} d*pi_q(d) = q^n.
* ``pi_chi2(q, n, cls)``: the same count split by the quadratic
  character of the constant term, from closed-form divisor sums.
* ``pi_K(L, n)``: degree-n places of a function field given the integer
  coefficients of its zeta numerator; power sums of inverse roots come
  from Newton's identities, so no root extraction touches the exact path.
* ``pi_arith(field, n, a, m)``: monic irreducibles congruent to a mod m,
  by an exact group-ring recurrence on the residue classes (any n) when
  the residue ring and its unit group fit its limits, else by direct
  enumeration (small n).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from . import ffield
from .errors import (
    EvenCharacteristic,
    NegativeCount,
    NotCoprime,
    ResourceLimit,
    RHViolation,
)
from .ffield import FieldSpec, MonicPoly
from .numtheory import divisors, mobius

CHI2_MINUS = "minus"
CHI2_ZERO_OR_PLUS = "zero-or-plus"

# limits for the group-ring method (residue classes kept in dense vectors)
_MAX_UNIT_GROUP = 4096
_MAX_RESIDUE_RING = 10**5

# relative tolerance of check_rh on |inverse root| / sqrt(q)
_RH_TOL = 1e-9


def pi_q(q: int, n: int) -> int:
    """Number of monic irreducibles of degree n over F_q."""
    if n < 1:
        raise ValueError("degree must be positive")
    total = sum(mobius(d) * q ** (n // d) for d in divisors(n))
    count, rem = divmod(total, n)
    if rem:
        raise ValueError(f"q={q} is not consistent with a prime-power count at n={n}")
    return count


def psi_chi2(q: int, n: int, cls: str) -> int:
    """The divisor sum sum_{d | n} d * pi_chi2(q, d, cls), in closed form."""
    if q % 2 == 0:
        raise EvenCharacteristic("the quadratic character needs odd q")
    v2 = (n & -n).bit_length() - 1
    half_powers = sum((q ** (n >> i) - 1) // 2 for i in range(1, v2 + 1))
    if cls == CHI2_MINUS:
        return (q**n - 1) // 2 + half_powers
    if cls == CHI2_ZERO_OR_PLUS:
        return (q**n + 1) // 2 - half_powers
    raise ValueError(f"unknown character class {cls!r}")


def pi_chi2(q: int, n: int, cls: str) -> int:
    """Monic irreducibles of degree n split by the quadratic character.

    ``cls`` is "minus" (character value -1) or "zero-or-plus" (0 or +1);
    the two classes together exhaust the irreducibles of each degree.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    total = sum(mobius(n // d) * psi_chi2(q, d, cls) for d in divisors(n))
    count, rem = divmod(total, n)
    if rem or count < 0:
        raise ValueError(f"character count inversion failed at n={n}")
    return count


@dataclass(frozen=True)
class LPolynomial:
    """Integer-coefficient zeta numerator of a function field.

    ``coeffs`` is low-to-high, constant term 1, even degree 2g.  Place
    counts derive from the inverse-root power sums, which Newton's
    identities give in exact integer arithmetic.
    """

    q: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        coeffs = tuple(int(c) for c in self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not coeffs or coeffs[0] != 1:
            raise ValueError("constant term must be 1")
        if (len(coeffs) - 1) % 2:
            raise ValueError("degree must be even (twice the genus)")
        if self.q < 2:
            raise ValueError("q must be a prime power >= 2")

    @property
    def genus(self) -> int:
        return (len(self.coeffs) - 1) // 2

    def check_rh(self) -> None:
        """Verify all inverse roots have absolute value sqrt(q).

        Floating-point diagnostic only; the exact counting path never
        uses the roots themselves.
        """
        if len(self.coeffs) == 1:
            return
        roots = np.roots(list(reversed(self.coeffs)))
        moduli = 1.0 / np.abs(roots)
        target = self.q**0.5
        worst = float(np.max(np.abs(moduli / target - 1.0)))
        if worst > _RH_TOL:
            raise RHViolation(
                f"inverse-root modulus off sqrt(q) by relative {worst:.3e}"
            )

    @cached_property
    def _rh_checked(self) -> bool:
        """check_rh, run once per instance (a failed check is not cached)."""
        self.check_rh()
        return True

    @cached_property
    def _power_sums(self) -> list[int]:
        return []

    @cached_property
    def _place_counts(self) -> dict[int, int]:
        return {}

    def _power_sum(self, n: int) -> int:
        """Sum of n-th powers of the inverse roots, by Newton's identities."""
        sums = self._power_sums
        c = self.coeffs
        deg = len(c) - 1
        while len(sums) < n:
            k = len(sums) + 1
            acc = -k * c[k] if k <= deg else 0
            for j in range(1, min(k - 1, deg) + 1):
                acc -= c[j] * sums[k - 1 - j]
            sums.append(acc)
        return sums[n - 1]

    def point_count(self, n: int) -> int:
        """Number of degree-one points over the degree-n constant extension."""
        if n < 1:
            raise ValueError("degree must be positive")
        count = self.q**n + 1 - self._power_sum(n)
        if count < 0:
            raise NegativeCount(f"negative point count at n={n}")
        return count

    def pi(self, n: int) -> int:
        """Number of places of degree n (memoized)."""
        cached = self._place_counts.get(n)
        if cached is not None:
            return cached
        total = sum(
            mobius(n // d) * self.point_count(d) for d in divisors(n)
        )
        count, rem = divmod(total, n)
        if rem or count < 0:
            raise NegativeCount(f"place count at n={n} is not a nonnegative integer")
        self._place_counts[n] = count
        return count

    def to_json(self) -> str:
        return json.dumps(
            {"q": self.q, "coefficients": list(self.coeffs)}, sort_keys=True
        )

    @classmethod
    def from_json(cls, text: str) -> "LPolynomial":
        data = json.loads(text)
        return cls(q=int(data["q"]), coeffs=tuple(data["coefficients"]))


def pi_K(L: LPolynomial, n: int) -> int:
    """Degree-n place count of the function field described by L."""
    L._rh_checked  # runs check_rh on the first call for this L
    return L.pi(n)


def phi_m(field: FieldSpec, m: MonicPoly) -> int:
    """Number of units in F_q[T]/(m), from the factorization of m."""
    if m.degree < 1:
        raise ValueError("modulus must have positive degree")
    q = field.q
    total = 1
    for prime, mult in ffield.factor(field, m).factors:
        d = prime.degree
        total *= q ** (d * mult) - q ** (d * (mult - 1))
    return total


def _residue_code(field: FieldSpec, a, m: MonicPoly) -> int:
    """Reduce a (MonicPoly, coefficient tuple, or element code) mod m."""
    if isinstance(a, MonicPoly):
        coeffs = a.coeffs
    elif isinstance(a, tuple):
        coeffs = a
    elif isinstance(a, int):
        if not 0 <= a < field.q:
            raise ValueError("integer residue must be a field element code")
        coeffs = (a,)
    else:
        raise TypeError("residue must be a polynomial, coefficient tuple, or code")
    return ffield.code_of(field, ffield.poly_mod_general(field, coeffs, m.coeffs))


class _ResidueGroup:
    """The unit group of F_q[T]/(m), with dense-vector group-ring helpers."""

    def __init__(self, field: FieldSpec, m: MonicPoly):
        if m.degree < 1:
            raise ValueError("modulus must have positive degree")
        q = field.q
        ring_size = q**m.degree
        if ring_size > _MAX_RESIDUE_RING:
            raise ResourceLimit(
                f"residue ring size {ring_size} exceeds {_MAX_RESIDUE_RING}"
            )
        self.field = field
        self.m = m
        codes = []
        for code in range(1, ring_size):
            coeffs = ffield.coeffs_of_code(field, code)
            if ffield.poly_gcd(field, coeffs, m.coeffs) == (1,):
                codes.append(code)
        if len(codes) > _MAX_UNIT_GROUP:
            raise ResourceLimit(
                f"unit group order {len(codes)} exceeds {_MAX_UNIT_GROUP}"
            )
        self.codes = codes
        self.order = len(codes)
        self.index = {code: i for i, code in enumerate(codes)}
        self._pow_maps: dict[int, np.ndarray] = {}

    def _reduce_product(self, code_a: int, code_b: int) -> int:
        field = self.field
        prod = ffield.poly_mul(
            field,
            ffield.coeffs_of_code(field, code_a),
            ffield.coeffs_of_code(field, code_b),
        )
        return ffield.code_of(field, ffield.poly_mod_general(field, prod, self.m.coeffs))

    @cached_property
    def mul_index(self) -> np.ndarray:
        table = np.empty((self.order, self.order), dtype=np.int32)
        for i, a in enumerate(self.codes):
            for j, b in enumerate(self.codes):
                if j < i:
                    table[i, j] = table[j, i]
                else:
                    table[i, j] = self.index[self._reduce_product(a, b)]
        return table

    def pow_map(self, k: int) -> np.ndarray:
        """Index array sending each unit to its k-th power.

        x^|G| = 1 for every unit x (Lagrange), so k is reduced mod the
        group order first.  A composite k = a*b reuses cached maps,
        x^(ab) = (x^b)^a, so only prime k <= |G| multiply residues.
        """
        k %= self.order
        cached = self._pow_maps.get(k)
        if cached is not None:
            return cached
        a = next((d for d in range(2, math.isqrt(k) + 1) if k % d == 0), k)
        if 1 < a < k:
            out = self.pow_map(a)[self.pow_map(k // a)]
        else:
            out = np.empty(self.order, dtype=np.int32)
            for i, code in enumerate(self.codes):
                acc, base, e = 1, code, k
                while e:
                    if e & 1:
                        acc = self._reduce_product(acc, base)
                    e >>= 1
                    if e:
                        base = self._reduce_product(base, base)
                out[i] = self.index[acc]
        self._pow_maps[k] = out
        return out

    def convolve(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        table = self.mul_index
        out = np.zeros(self.order, dtype=object)
        for i in range(self.order):
            if x[i]:
                np.add.at(out, table[i], x[i] * y)
        return out

    def push_power(self, k: int, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.order, dtype=object)
        np.add.at(out, self.pow_map(k), x)
        return out


class _ArithTable:
    """Exact prime counts per coprime residue class, all degrees at once.

    Splitting the zeta product over residue classes gives a power series
    with group-ring coefficients: degree-n terms are q^(n-deg m) copies
    of every coprime class once n >= deg m, and enumerable below that.
    A Newton-style recurrence extracts the weighted prime sums, and a
    divisor peel-off recovers the per-class prime counts themselves.
    """

    def __init__(self, field: FieldSpec, m: MonicPoly, cap: int | None = None):
        self.group = _ResidueGroup(field, m)
        self.field = field
        self.m = m
        order = self.group.order
        self._z: list[np.ndarray | None] = []  # dense only below deg m
        for n in range(m.degree):
            vec = np.zeros(order, dtype=object)
            for f in ffield.enumerate_monic(field, n, cap=cap):
                code = _residue_code(field, f, m)
                idx = self.group.index.get(code)
                if idx is not None:
                    vec[idx] += 1
            self._z.append(vec)
        self._psi: list[np.ndarray] = []  # psi_1, psi_2, ...
        self._psi_sums: list[int] = []
        self._scalar_terms = 0  # S_k of _extend_psi for the last k computed
        self._primes: dict[int, np.ndarray] = {}

    def _extend_psi(self, n: int) -> None:
        """psi_k = k Z_k - sum_{j<k} Z_(k-j) psi_j in the group ring, k <= n.

        For k - j >= deg m, Z_(k-j) psi_j is sum(psi_j) q^(k-j-deg m) times
        all-ones, so those terms add up to S_k times all-ones, S_k = sum over
        j <= k - deg m of sum(psi_j) q^(k-j-deg m).  Horner keeps S_k:
        S_(k+1) = q S_k + sum(psi_(k+1-deg m)).  Only the deg m - 1 terms
        with k - j < deg m are dense convolutions.
        """
        d, q = self.m.degree, self.field.q
        while len(self._psi) < n:
            k = len(self._psi) + 1
            if k < d:
                acc = k * self._z[k]
            else:
                if k > d:
                    self._scalar_terms = q * self._scalar_terms + self._psi_sums[k - d - 1]
                acc = np.full(self.group.order, k * q ** (k - d) - self._scalar_terms,
                              dtype=object)
            for j in range(max(1, k - d + 1), k):
                acc = acc - self.group.convolve(self._psi[j - 1], self._z[k - j])
            self._psi.append(acc)
            self._psi_sums.append(int(sum(acc)))

    def prime_vector(self, n: int) -> np.ndarray:
        """Counts of degree-n primes in each coprime class, as a dense vector."""
        cached = self._primes.get(n)
        if cached is not None:
            return cached
        self._extend_psi(n)
        acc = self._psi[n - 1].copy()
        for d in divisors(n):
            if d < n:
                acc = acc - d * self.group.push_power(n // d, self.prime_vector(d))
        vec = np.empty(self.group.order, dtype=object)
        for i, value in enumerate(acc):
            count, rem = divmod(int(value), n)
            if rem or count < 0:
                raise NegativeCount(
                    f"class prime count at degree {n} is not a nonnegative integer"
                )
            vec[i] = count
        self._primes[n] = vec
        return vec

    def count(self, n: int, a_code: int) -> int:
        idx = self.group.index.get(a_code)
        if idx is None:
            raise NotCoprime("residue is not coprime to the modulus")
        return int(self.prime_vector(n)[idx])


_ARITH_CACHE: dict[tuple, _ArithTable] = {}


def _arith_table(field: FieldSpec, m: MonicPoly, cap: int | None = None) -> _ArithTable:
    # building the table enumerates degree deg m - 1; a cached table
    # answers to the cap as well, so a capped call fails either way
    ffield.check_cap(field, m.degree - 1, cap)
    key = (field.p, field.k, field.modulus, m.coeffs)
    table = _ARITH_CACHE.get(key)
    if table is None:
        table = _ArithTable(field, m, cap=cap)
        _ARITH_CACHE[key] = table
    return table


def _unit_residue(field: FieldSpec, a, m: MonicPoly) -> int:
    """The code of a mod m, checked to be a unit."""
    if m.degree < 1:
        raise ValueError("modulus must have positive degree")
    a_code = _residue_code(field, a, m)
    a_coeffs = ffield.coeffs_of_code(field, a_code)
    if ffield.poly_gcd(field, a_coeffs, m.coeffs) != (1,):
        raise NotCoprime("residue and modulus share a factor")
    return a_code


@lru_cache(maxsize=None)
def _group_ring_fits(field: FieldSpec, m: MonicPoly) -> bool:
    """Are both the residue ring and its unit group within _ResidueGroup's limits?"""
    return field.q**m.degree <= _MAX_RESIDUE_RING and phi_m(field, m) <= _MAX_UNIT_GROUP


def _class_count(field: FieldSpec, n: int, a_code: int, m: MonicPoly,
                 cap: int | None) -> int:
    """pi_arith for a residue code already checked by _unit_residue."""
    if _group_ring_fits(field, m):
        return _arith_table(field, m, cap=cap).count(n, a_code)
    count = 0
    for prime in ffield.irreducibles(field, n, cap):
        if _residue_code(field, prime, m) == a_code:
            count += 1
    return count


def pi_arith(field: FieldSpec, n: int, a, m: MonicPoly, cap: int | None = None) -> int:
    """Monic irreducibles of degree n congruent to a modulo m.

    The exact group-ring recurrence (_ArithTable, any n) runs when the
    residue ring and its unit group fit its limits (_group_ring_fits);
    otherwise the degree-n irreducibles are enumerated, which needs q^n
    and the remainder plan of degree n within the cap.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    return _class_count(field, n, _unit_residue(field, a, m), m, cap)


def progression_gap_squared(field: FieldSpec, n: int, a, m: MonicPoly, count: int) -> tuple[Fraction, Fraction]:
    """Exact pair (deviation^2, bound^2) for the progression prime count.

    The inequality |n*count - q^n / phi(m)| <= (deg m + 1) q^(n/2)
    involves the irrational q^(n/2) for odd n, so callers compare the
    squares, which are exact rationals.
    """
    q = field.q
    phi = phi_m(field, m)
    gap = Fraction(n * count) - Fraction(q**n, phi)
    bound_sq = Fraction((m.degree + 1) ** 2) * q**n
    return gap * gap, bound_sq
