"""Exact tables of irreducible-polynomial and place counts.

Four kinds of counts, all exact integers:

* ``pi_q(q, n)``: monic irreducibles of degree n over F_q, by Moebius
  inversion of the divisor-sum identity sum_{d | n} d*pi_q(d) = q^n.
* ``pi_chi2(q, n, cls)``: the same count split by the quadratic
  character of the constant term, from closed-form divisor sums.
* ``pi_K(L, n)``: degree-n places of a function field given the integer
  coefficients of its zeta numerator; power sums of inverse roots come
  from Newton's identities, so no root extraction touches the exact path.
* ``pi_arith(field, n, a, m)``: monic irreducibles congruent to a mod m.
  When the residue ring and its unit group fit the character table's
  limits, m is counted in the character basis (below, any n); otherwise
  the primes of the enumeration sieve (universe, small n) are counted
  by degree in class a, their residues read from the sieve's PrimeTable
  (prime_residues, one batched ffield._residues call).  A whole table
  pi(1..N; a) comes from one call of _class_counts, the entry the
  families module reads: it builds the character table to N once and
  returns its kept counts, or builds the sieve to N once, the cap
  checked for N first, and takes its primes' residues once.

The character basis (module characters).  The unit group
G = (F_q[T]/m)^* of any m is a product of cyclic groups of orders n_i:
one of order q^(deg P) - 1 for each prime P | m, and those of the
1-unit group of each P^e with e >= 2 (the decomposition and its proof
are in the characters module docstring).  A generator of each and its
log table give every unit its log vector (l_i), and the characters are
chi_k(f) = prod_i zeta_(n_i)^(k_i l_i(f)), k_i mod n_i, with values in
Z[zeta_e], e = lcm(n_i).  For chi != chi_0, L(u, chi) = sum_f chi(f)
u^(deg f) over the monic f is a polynomial of degree < deg m (Rosen,
Number Theory in Function Fields, GTM 210, Prop. 4.3): its coefficients
c_j(chi) are the character sums over the monic f of degree j coprime to
m, read off the log histograms of those f.  Its log-derivative
u L'/L = sum_n psi_n(chi) u^n, psi_n(chi) = sum over P^k with
k deg P = n of deg P chi(P)^k, obeys Newton's identities
psi_n = n c_n - sum_{i=1}^{n-1} c_i psi_(n-i), with c_i = 0 for
i >= deg m; psi_n(chi_0) = q^n - sum_{P | m, deg P | n} deg P exactly.
Moebius inversion over the prime powers gives
n Pi_n(chi) = sum_{e | n} mu(e) psi_(n/e)(chi^e) for
Pi_n(chi) = sum_{deg P = n} chi(P), and orthogonality gives
phi n pi(n; a) = sum_chi conj(chi(a)) n Pi_n(chi).  Per degree this is
O(phi deg m) work, against O(phi^2 deg m) for a recurrence on dense
class vectors in the group ring Z[G].  It runs exactly:

* Reduction.  Each identity above holds in Z[zeta_e].  For a prime
  l = 1 (mod e) and w of order e mod l, x^e - 1 is separable mod l, so
  w is a root of the cyclotomic polynomial Phi_e and zeta_e -> w is a
  ring map Z[zeta_e] -> F_l.  The identities hold for the images, and
  an integer maps to its residue.  Orthogonality holds in F_l too, and
  phi is invertible there, as l > 2^25 > phi.  So n pi(n; a) is known
  modulo each of the largest primes l < 2^26 with l = 1 (mod e).
* Arithmetic.  Residues are below 2^26, so a product is below 2^52.
  The int64 sums of products in the character transform and the class
  sum are reduced at least every 2^11 terms, by series._contract_mod,
  so they stay below 2^63; Newton's sums have fewer than deg m <= 16
  terms and the Moebius sums d(n) terms below 2^26.
* Size.  0 <= n pi(n; a) <= sum_{d | n} d pi_q(d) = q^n.  The table's
  primes are chosen so that their product M exceeds 2 q^N, so for every
  n <= N the value lies in [0, M/2) and is the residue that one
  series._CrtPlan over all of them returns.  A remainder mod n or a
  negative value means the arithmetic went wrong and raises
  NegativeCount.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import TYPE_CHECKING

import numpy as np

from . import ffield, series, universe
from .errors import (
    EvenCharacteristic,
    NegativeCount,
    NotCoprime,
    RHViolation,
)
from .ffield import FieldSpec, MonicPoly
from .numtheory import divisors, mobius

if TYPE_CHECKING:
    from .characters import CharacterTable

CHI2_MINUS = "minus"
CHI2_ZERO_OR_PLUS = "zero-or-plus"

# limits for the character table: its histograms and log tables run over
# the q^deg m residues, and it keeps psi_n(chi) for each of the phi(m)
# characters, with one dense n_i x n_i transform per cyclic factor
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


def _is_integer(value) -> bool:
    """An int that is not a bool (JSON true/false parse as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


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
        if not _is_integer(self.q):
            raise ValueError(f'"q" must be an integer, got {self.q!r}')
        if not isinstance(self.coeffs, (tuple, list)) or not all(map(_is_integer, self.coeffs)):
            raise ValueError(f'"coefficients" must be a list of integers, got {self.coeffs!r}')
        coeffs = tuple(self.coeffs)
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
    def _place_counts(self) -> list[int | None]:
        """pi(n) at index n for every degree filled so far; None at 0 and at
        a degree whose count failed its checks."""
        return [None]

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
        """Number of places of degree n (memoized).

        A degree past those kept fills every degree up to max(n, twice
        those kept) in one pass (_fill_place_counts), so degrees asked one
        at a time cost O(log n) passes.
        """
        if n < 1:
            raise ValueError("degree must be positive")
        counts = self._place_counts
        if n >= len(counts):
            self._fill_place_counts(max(n, 2 * (len(counts) - 1)))
        if counts[n] is None:
            for d in divisors(n):
                self.point_count(d)  # raises at the first negative point count
            raise NegativeCount(f"place count at n={n} is not a nonnegative integer")
        return counts[n]

    def _fill_place_counts(self, M: int) -> None:
        """pi(n) for n = 1..M: the point counts N_k = q^k + 1 - s_k from a
        running q^k and the Newton sums s_k, then one Moebius inversion of
        N_n = sum_{d | n} d pi(d) for every n at once (series._mobius_sums).
        A degree with a negative N_d at some d | n, or whose n pi(n) is not
        a nonnegative multiple of n, is kept as None, and pi raises for it."""
        self._power_sum(M)
        total, qk = [0], 1
        for s in self._power_sums[:M]:
            qk *= self.q
            total.append(qk + 1 - s)
        bad = bytearray(M + 1)
        for d in range(1, M + 1):
            if total[d] < 0:
                bad[d::d] = b"\x01" * len(range(d, M + 1, d))
        total = series._mobius_sums(total)
        self._place_counts[1:] = [
            None if bad[n] or total[n] % n or total[n] < 0 else total[n] // n
            for n in range(1, M + 1)]

    def to_json(self) -> str:
        return json.dumps(
            {"q": self.q, "coefficients": list(self.coeffs)}, sort_keys=True
        )

    @classmethod
    def from_json(cls, text: str) -> "LPolynomial":
        """Read {"q": q, "coefficients": [c_0, c_1, ...]}; q and every c_i
        must be JSON integers, not booleans, floats or strings (checked
        in __post_init__).  Bad input raises ValueError naming the field."""
        data = json.loads(text)
        if not isinstance(data, dict):
            raise ValueError('expected a JSON object with "q" and "coefficients"')
        for field in ("q", "coefficients"):
            if field not in data:
                raise ValueError(f'missing field "{field}"')
        return cls(q=data["q"], coeffs=data["coefficients"])


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


def _residue_coeffs(field: FieldSpec, a) -> tuple[int, ...]:
    """The coefficients of a residue: a MonicPoly, a coefficient tuple, or
    an int, which is a field element code (the constant polynomial a)."""
    if isinstance(a, MonicPoly):
        return a.coeffs
    if isinstance(a, tuple):
        return a
    if isinstance(a, int):
        if not 0 <= a < field.q:
            raise ValueError("integer residue must be a field element code")
        return (a,)
    raise TypeError("residue must be a polynomial, coefficient tuple, or code")


def _residue_code(field: FieldSpec, a, m: MonicPoly) -> int:
    """Reduce a residue (see _residue_coeffs) mod m."""
    coeffs = _residue_coeffs(field, a)
    return ffield.code_of(field, ffield.poly_mod_general(field, coeffs, m.coeffs))


_ARITH_CACHE: dict[tuple, CharacterTable] = {}


def _arith_table(field: FieldSpec, m: MonicPoly, cap: int | None = None) -> CharacterTable:
    """The class table of m, in the character basis."""
    # building the table enumerates degree deg m - 1; a cached table
    # answers to the cap as well, so a capped call fails either way
    ffield.check_cap(field, m.degree - 1, cap)
    key = (field.p, field.k, field.modulus, m.coeffs)
    table = _ARITH_CACHE.get(key)
    if table is None:
        # imported here: a CLI run that counts no progression never compiles it
        from .characters import CharacterTable
        table = _ARITH_CACHE[key] = CharacterTable(field, m, ffield.factor(field, m).factors)
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
def _character_table_fits(field: FieldSpec, m: MonicPoly) -> bool:
    """Are both the residue ring and its unit group within the character table's limits?"""
    return field.q**m.degree <= _MAX_RESIDUE_RING and phi_m(field, m) <= _MAX_UNIT_GROUP


def _sieved_counts(field: FieldSpec, N: int, a_code: int, m: MonicPoly,
                   cap: int | None) -> list[int]:
    """pi(n; a) for n = 1..N from the enumeration sieve: the shared universe
    is built to N (its cap checked before any degree is sieved), the
    residues of its primes are taken once (PrimeTable.prime_residues), and
    the primes in class a are counted by degree."""
    primes = universe.get_universe(field, N, cap).primes
    degrees = primes.prime_deg[primes.prime_residues(m) == a_code]
    return np.bincount(degrees, minlength=N + 1)[1:N + 1].tolist()


def _class_counts(field: FieldSpec, N: int, a_code: int, m: MonicPoly,
                  cap: int | None) -> list[int]:
    """pi(n; a) for n = 1..N, for a residue code already checked by
    _unit_residue: the character table built to N at once, or past its
    limits the sieve's primes to degree N, their residues taken once."""
    if N < 1:
        return []  # no degree asks for no table
    if _character_table_fits(field, m):
        return _arith_table(field, m, cap=cap).counts(a_code, N)
    return _sieved_counts(field, N, a_code, m, cap)


def pi_arith(field: FieldSpec, n: int, a, m: MonicPoly, cap: int | None = None) -> int:
    """Monic irreducibles of degree n congruent to a modulo m.

    Two paths, by m, as for a whole table (_class_counts):

    * m whose residue ring and unit group fit the character table's
      limits (_character_table_fits): the character basis
      (characters.CharacterTable, any n), exact modulo primes 1 mod the
      group exponent; the table enumerates the monic f of degree
      < deg m, within the cap.  For one degree a short table is rebuilt
      to at least twice its length (CharacterTable.count);
    * past the limits: the residues of the shared enumeration sieve's
      primes (universe.get_universe, which needs q^n within the cap) are
      read by PrimeTable.prime_residues, and the degree-n ones counted.
    """
    if n < 1:
        raise ValueError("degree must be positive")
    a_code = _unit_residue(field, a, m)
    if _character_table_fits(field, m):
        return _arith_table(field, m, cap=cap).count(n, a_code)
    return _sieved_counts(field, n, a_code, m, cap)[-1]


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
