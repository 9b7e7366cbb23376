"""Exact counts for the polynomial and divisor families.

Every family is primes of one splitting type to a restricted
multiplicity, free on known generators, so its counts are the
coefficients of F = exp(sum psi_n x^n / n).  Two constructions compute
psi, the generator counts, the row (c1, c2), the membership rule, the
degree step and the base q from their parameters:

* Places(L, r, ell): divisors on the places of degree in rZ of the curve
  with zeta numerator L, each of multiplicity <= ell (None: unbounded),
  by degree/r: psi_n = sum_{d | n} d pi_L(r d), less (ell+1)
  psi_(n/(ell+1)) if ell is set.  In genus 0 (L = 1) with r >= 2 the
  place at infinity never occurs: these are the monic f whose primes
  have r | deg P and multiplicity <= ell, which the sieve counts.
* Norms(q, chi_D): the monic f whose inert primes (chi_D(P) = -1) have
  even multiplicity.  With lambda_n the n-th log-derivative coefficient
  of L(u, chi_D) and rho_n = sum deg P over ramified P with deg P | n,
      J_m = q^m - lambda_m - rho_m + [2|m] J_(m/2),
      2 psi_n = q^n + lambda_n + rho_n + [2|n] J_(n/2),
  index k holding psi_(sk) / s for the degree step s.  Proof: by
  zeta(u) L(u, chi_D) = prod_P (1 - u^deg P)^-1 (1 - chi_D(P) u^deg P)^-1,
  q^n + lambda_n sums, over P^k with k deg P = n, 2 deg P (P split),
  deg P (ramified), 2 deg P or 0 (inert, k even or odd).  So J_m = 2 sum
  deg P over inert P with deg P | m obeys the first line, and 2 psi_n
  (2 deg P per admissible P with deg P | n, 4 deg P per inert P with
  2 deg P | n) is the second.

In _NAMES, the one table of names, landau (A^2 + T B^2) is Norms of
D = -T (lambda = 0, rho = 1, step 1); s1 of a non-square constant, inert
at odd degree (lambda_n = (-q)^n, rho = 0, step 2); s2 and s3 Places(1,
2) and Places(1, 2, 1) over F_q.  Norms.row and Places.row cite the
lemmas of the rows.  generator_counts and the membership oracles recount
each family apart from psi; nothing here caches psi.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from . import ffield, series, universe
from .errors import (
    EvenCharacteristic,
    HypothesisViolation,
    NegativeCount,
    NotCoprime,
    ResourceLimit,
)
from .ffield import Factorization, FieldSpec, MonicPoly
from .primecounts import (
    CHI2_MINUS,
    CHI2_ZERO_OR_PLUS,
    LPolynomial,
    _class_counts,
    _residue_code,
    _residue_coeffs,
    _unit_residue,
    phi_m,
    pi_K,
    pi_chi2,
    pi_q,
)
from .qpoly import QPoly

FAMILY_LANDAU = "landau-A2TB2"
FAMILY_S1 = "s1-even-multiplicity"
FAMILY_S2 = "s2-even-degree"
FAMILY_S3 = "s3-even-degree-squarefree"
FAMILY_DIVISORS = "divisors-r-K"
FAMILY_DIVISORS_ELL = "divisors-r-ell-K"
FAMILY_ARITH = "arith-progression"

_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class MembershipRule:
    """f is a member when passes(admissible(P), e) for every P^e exactly
    dividing it.  admissible maps a universe.PrimeTable (the Universe's,
    or membership_oracle's of one factorization) to a bool array; passes
    works elementwise; key names the rule in a Universe's mask cache."""

    key: tuple
    admissible: Callable
    passes: Callable


# the genus-0 rows by (r, ell) that the s2 and s3 lemmas prove
_GENUS0_ROWS = {(2, None): (_HALF, _HALF), (2, 1): (_HALF, Fraction(1))}


@lru_cache(maxsize=None)
def genus_zero(q: int) -> LPolynomial:
    """L = 1 of the projective line over F_q; one per q shares its counts."""
    ffield.field_for_order(q)  # raises unless q is a prime power
    return LPolynomial(q, (1,))


class Places:
    """Divisors on the places of degree in rZ of the curve with zeta
    numerator l_poly, each of multiplicity at most ell (None: unbounded)."""

    def __init__(self, l_poly: LPolynomial, r: int, ell: int | None = None):
        self.l_poly, self.r, self.ell = l_poly, r, ell
        self.degree_step, self.base_q = r, l_poly.q

    def validate(self) -> None:
        if self.r < 2:
            raise ValueError("divisor families need r >= 2")
        if self.ell is not None and self.ell < 1:
            raise ValueError("bounded-multiplicity variant needs ell >= 1")

    def field(self) -> FieldSpec:
        if self.l_poly.genus:
            raise ValueError("no enumeration oracle for the divisor families")
        return ffield.field_for_order(self.base_q)

    def _counts(self, N: int) -> list[int]:
        """pi_L(r d) at d = 0..N (0 at 0), the places filled to rN at once."""
        if N:
            pi_K(self.l_poly, self.r * N)
        return [0] + [pi_K(self.l_poly, self.r * d) for d in range(1, N + 1)]

    def psi(self, N: int, cap: int | None = None) -> list[int]:
        sums = series._weighted_divisor_sums(dict(enumerate(self._counts(N))), N)
        psi, step = [0, *sums.values()], (self.ell or N) + 1  # unbounded: step > N
        return [v - step * psi[n // step] if n and n % step == 0 else v
                for n, v in enumerate(psi)]

    def generator_counts(self, N: int, cap: int | None = None) -> dict[int, int]:
        """pi_L(r n) less pi_L(r n / (ell+1)) where ell+1 divides n: the
        effective counts, whose weighted divisor sums are psi."""
        counts, step = self._counts(N), (self.ell or N) + 1  # unbounded: step > N
        g = {n: counts[n] - (counts[n // step] if n % step == 0 else 0)
             for n in range(1, N + 1)}
        for n, value in g.items():
            if value < 0:
                raise NegativeCount(f"effective generator count negative at index {n}")
        return g

    def row(self) -> tuple[Fraction, Fraction]:
        """c1 = 1/r.  In genus 0 at r = 2 the s2 lemma (atilde_n = -q^m / 2,
        m the odd part of n) gives c2 = 1/2, and with ell = 1 the s3 lemma
        (-q^n / 2 at odd n, -q^n + q^m / 2 at even n) c2 = 1; elsewhere the
        divisor lemmas give 16 max(g, 1) / r, or 42 max(g, 1) / r with ell."""
        genus = self.l_poly.genus
        if genus == 0 and (self.r, self.ell) in _GENUS0_ROWS:
            return _GENUS0_ROWS[self.r, self.ell]
        constant = 16 if self.ell is None else 42
        return Fraction(1, self.r), Fraction(constant * max(genus, 1), self.r)

    def rule(self, field: FieldSpec) -> MembershipRule:
        """P admissible when r | deg P; P^e passes when admissible, e <= ell."""
        self.field()  # raises off the projective line
        r, ell = self.r, self.ell
        return MembershipRule(("places", r, ell), lambda primes: primes.prime_deg % r == 0,
                              lambda good, e: good if ell is None else good & (e <= ell))


@dataclass(frozen=True)
class Character:
    """A quadratic character chi_D for the norm construction: lam(power, n)
    = lambda_n, rho(n) = rho_n with power(k) = q^k; admissible(primes) =
    chi_D(P) != -1; generators(q, d) counts the admissible P of degree d
    and inert P of degree d/2 apart from psi; step, c2, and any even-q error."""

    lam: Callable
    rho: Callable
    admissible: Callable
    generators: Callable
    step: int
    c2: Fraction
    even_q_error: str | None = None


CHI_MINUS_T = Character(  # L(u, chi) = 1; T ramified
    lam=lambda power, n: 0, rho=lambda n: 1,
    admissible=lambda primes: primes.prime_chi2() != -1,
    generators=lambda q, d: pi_chi2(q, d, CHI2_ZERO_OR_PLUS)
    + (0 if d % 2 else pi_chi2(q, d // 2, CHI2_MINUS)),
    step=1, c2=Fraction(1), even_q_error="the A^2 + T B^2 family needs odd q")

CHI_CONSTANT = Character(  # L(u, chi) = 1 / (1 + q u); generators at even d only
    lam=lambda power, n: -power(n) if n % 2 else power(n), rho=lambda n: 0,
    admissible=lambda primes: primes.prime_deg % 2 == 0,
    generators=lambda q, d: pi_q(q, d) + (pi_q(q, d // 2) if d // 2 % 2 else 0),
    step=2, c2=_HALF)


def _norm_twice_psi(chi: Character, power, N: int) -> list:
    """2 psi_n at n = 0..N (0 at 0) of chi's norm family by the J
    recursion, power(k) = q^k giving ints or QPoly monomials, so the same
    lines give psi_table and the landau counts with q left symbolic."""
    J, twice = [0], [0]
    for n in range(1, N + 1):
        top, lam, rho = power(n), chi.lam(power, n), chi.rho(n)
        half = J[n // 2] if n % 2 == 0 else 0
        J.append(top - lam - rho + half)
        twice.append(top + lam + rho + half)
    return twice


class Norms:
    """Monic f over F_q whose primes inert for chi have even multiplicity."""

    def __init__(self, q: int, chi: Character):
        self.chi, self.degree_step, self.base_q = chi, chi.step, q

    def field(self) -> FieldSpec:
        return ffield.field_for_order(self.base_q)

    def validate(self) -> None:
        self.field()
        if self.chi.even_q_error and self.base_q % 2 == 0:
            raise EvenCharacteristic(self.chi.even_q_error)

    def psi(self, N: int, cap: int | None = None) -> list[int]:
        """psi_(sk) / s at index k from one running list of powers of q;
        a remainder raises NegativeCount."""
        s, powers = self.degree_step, [1]
        for _ in range(s * N):
            powers.append(powers[-1] * self.base_q)
        twice, psi = _norm_twice_psi(self.chi, powers.__getitem__, s * N), [0]
        for k in range(1, N + 1):
            value, rem = divmod(twice[s * k], 2 * s)
            if rem:
                raise NegativeCount(f"non-integral log-coefficient at index {k}")
            psi.append(value)
        return psi

    def generator_counts(self, N: int, cap: int | None = None) -> dict[int, int]:
        return {k: self.chi.generators(self.base_q, self.chi.step * k) for k in range(1, N + 1)}

    def row(self) -> tuple[Fraction, Fraction]:
        """c1 = 1/2; landau's atilde_n = (1 + J_(n/2)) / 2 lies in [1/2,
        q^(n/2)] (c2 = 1), s1's is q^m / 2, m the odd part of n (c2 = 1/2)."""
        return _HALF, self.chi.c2

    def rule(self, field: FieldSpec) -> MembershipRule:
        """P admissible when chi(P) != -1; P^e passes when admissible or e even."""
        return MembershipRule(("norms", self.chi), self.chi.admissible,
                              lambda good, e: good | (e % 2 == 0))


class Progression:
    """Monic f over F_q all of whose primes are congruent to a mod m."""

    def __init__(self, q: int, m: tuple[int, ...], a: tuple[int, ...]):
        self.m, self.a, self.degree_step, self.base_q = MonicPoly(m), a, 1, q

    def field(self) -> FieldSpec:
        return ffield.field_for_order(self.base_q)

    def validate(self) -> None:
        field, m = self.field(), self.m.coeffs
        if self.m.degree < 1:
            raise ValueError("the modulus must have positive degree")
        a = ffield.poly_mod_general(field, self.a, m)
        if a == (0,) or ffield.poly_gcd(field, a, m) != (1,):
            raise NotCoprime("residue must be coprime to the modulus")

    def generator_counts(self, N: int, cap: int | None = None) -> dict[int, int]:
        """The class primes of degrees 1..N: one residue check, one pass."""
        field = self.field()
        a_code = _unit_residue(field, self.a, self.m)
        return dict(enumerate(_class_counts(field, N, a_code, self.m, cap), start=1))

    def psi(self, N: int, cap: int | None = None) -> list[int]:
        return [0, *series._weighted_divisor_sums(self.generator_counts(N, cap), N).values()]

    def row(self) -> tuple[Fraction, Fraction]:
        """c1 = 1/phi(m), c2 = deg m + 3."""
        phi = phi_m(self.field(), self.m)
        if phi < 2:
            raise HypothesisViolation("phi(m) = 1 makes c1 = 1, outside the open interval (0, 1)")
        return Fraction(1, phi), Fraction(self.m.degree + 3)

    def rule(self, field: FieldSpec) -> MembershipRule:
        """P admissible when P = a mod m; P^e passes when admissible."""
        m, a_code = self.m, _residue_code(field, self.a, self.m)
        return MembershipRule(("arith", m.coeffs, a_code),
                              lambda primes: primes.prime_residues(m) == a_code,
                              lambda good, e: good)


@dataclass(frozen=True)
class _Name:
    """A family name: its short (CLI) name, FamilySpec fields, construction,
    half-degree CLI size, and label and params (None: "short q=...", q)."""

    short: str
    fields: tuple[str, ...]
    build: Callable
    half_degree: bool = False
    label: Callable | None = None
    params: Callable | None = None


_DIVISORS = dict(
    short="divisors", build=lambda s: Places(s.l_poly, s.r, s.ell),
    label=lambda s: f"divisors r={s.r}{'' if s.ell is None else f' ell={s.ell}'} "
                    f"q={s.l_poly.q}",
    params=lambda s: {"l_polynomial": s.l_poly.to_json(), "r": s.r,
                      "ell": "unbounded" if s.ell is None else s.ell})

_NAMES = {
    FAMILY_LANDAU: _Name("landau", ("q",), lambda s: Norms(s.q, CHI_MINUS_T)),
    FAMILY_S1: _Name("s1", ("q",), lambda s: Norms(s.q, CHI_CONSTANT), True),
    FAMILY_S2: _Name("s2", ("q",), lambda s: Places(genus_zero(s.q), 2), True),
    FAMILY_S3: _Name("s3", ("q",), lambda s: Places(genus_zero(s.q), 2, 1), True),
    FAMILY_ARITH: _Name(
        "arith", ("q", "m", "a"), lambda s: Progression(s.q, s.m, s.a),
        label=lambda s: f"arith q={s.q} m={MonicPoly(s.m)}",
        params=lambda s: {"q": s.q, "m": ffield.poly_to_string(MonicPoly(s.m)),
                          "a": ffield.poly_to_string(s.a)}),
    FAMILY_DIVISORS: _Name(fields=("l_poly", "r"), **_DIVISORS),
    FAMILY_DIVISORS_ELL: _Name(fields=("l_poly", "r", "ell"), **_DIVISORS),
}

ALL_FAMILIES = tuple(_NAMES)
SHORT_NAMES = tuple(dict.fromkeys(entry.short for entry in _NAMES.values()))


def canonical_family(name: str) -> str:
    for family, entry in _NAMES.items():
        if name in (family, entry.short):
            return family
    raise ValueError(f"unknown family {name!r}")


def family_fields(name: str) -> set[str]:
    """The FamilySpec fields of every canonical name of name's short name
    (divisors takes ell, as divisors-r-ell-K)."""
    short = _NAMES[canonical_family(name)].short
    return {f for entry in _NAMES.values() if entry.short == short for f in entry.fields}


@dataclass(frozen=True)
class FamilySpec:
    """A family name (an alias is stored as the canonical name) and the
    parameters its construction reads: q, or an LPolynomial, r and ell,
    or q with modulus and residue coefficient tuples."""

    family: str
    q: int | None = None
    r: int | None = None
    ell: int | None = None
    l_poly: LPolynomial | None = None
    m: tuple[int, ...] | None = None
    a: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "family", canonical_family(self.family))

    @cached_property
    def construction(self):
        """The Places, Norms or Progression instance the spec names."""
        return _NAMES[self.family].build(self)

    def validate(self) -> None:
        takes = _NAMES[self.family].fields
        for name in ("q", "r", "ell", "l_poly", "m", "a"):
            if (getattr(self, name) is None) == (name in takes):
                verb = "needs" if name in takes else "takes no"
                raise ValueError(f"family {self.family} {verb} {name}")
        self.construction.validate()

    def field(self) -> FieldSpec:
        return self.construction.field()

    @property
    def degree_step(self) -> int:
        """Degree of the counted objects per unit of table index."""
        return self.construction.degree_step

    @property
    def base_q(self) -> int:
        return self.construction.base_q

    @property
    def half_degree(self) -> bool:
        return _NAMES[self.family].half_degree

    @property
    def label(self) -> str:
        entry = _NAMES[self.family]
        return entry.label(self) if entry.label else f"{entry.short} q={self.q}"

    def generator_counts(self, N: int, cap: int | None = None) -> dict[int, int]:
        """Free-generator count at each table index 1..N."""
        return self.construction.generator_counts(N, cap)

    def params_json(self) -> dict:
        entry = _NAMES[self.family]
        params = entry.params(self) if entry.params else {"q": self.q}
        return {"degree_per_index": self.degree_step, **params}


@dataclass(frozen=True)
class CountTable:
    """Exact member counts of one family at indices 0..N."""

    spec: FamilySpec
    values: dict
    method: str
    N: int

    def __post_init__(self):
        for n, v in self.values.items():
            if not isinstance(v, int) or v < 0:
                raise NegativeCount(f"count at index {n} is not a nonnegative integer")

    def value(self, n: int) -> int:
        return self.values[n]

    def to_json(self) -> dict:
        return {
            "family": self.spec.family,
            "params": self.spec.params_json(),
            "N": self.N,
            "values": {str(n): str(v) for n, v in sorted(self.values.items())},
        }


def count_table(spec: FamilySpec, N: int, cap: int | None = None) -> CountTable:
    """Exact counts at indices 0..N: coefficients of exp(sum psi_n x^n / n)."""
    spec.validate()
    F = series._exp_psi_over_n(dict(enumerate(psi_table(spec, N, cap=cap))), N)
    return CountTable(spec, dict(enumerate(F.coeffs)), "generating-function", N)


def count_landau(q: int, N: int) -> CountTable:
    """B(n, q) for n = 0..N: monic degree-n polynomials of the form A^2 + T B^2."""
    return count_table(FamilySpec(FAMILY_LANDAU, q=q), N)


def count_s_family(q: int, which: int, N: int) -> CountTable:
    """The even-degree family counts, tabulated by half-degree n = 0..N.

    which=1: odd-degree primes to even multiplicity; which=2: all prime
    factors of even degree; which=3: squarefree with even-degree primes.
    """
    return count_table(FamilySpec(f"s{which}", q=q), N)  # another which names no family


def count_divisors(L: LPolynomial, r: int, ell: int | None, N: int) -> CountTable:
    """Effective divisors of degree rn supported on places of degree in rZ.

    ell=None places no bound on multiplicities; ell=k restricts every
    place to multiplicity at most k.
    """
    family = FAMILY_DIVISORS if ell is None else FAMILY_DIVISORS_ELL
    return count_table(FamilySpec(family, l_poly=L, r=r, ell=ell), N)


def count_arith(field: FieldSpec, a, m: MonicPoly, N: int,
                cap: int | None = None) -> CountTable:
    """Monic polynomials all of whose prime factors are congruent to a mod m.

    a is a MonicPoly, a coefficient tuple or a field element code, as in
    pi_arith.
    """
    spec = FamilySpec(FAMILY_ARITH, q=field.q, m=m.coeffs, a=_residue_coeffs(field, a))
    return count_table(spec, N, cap=cap)


def psi_table(spec: FamilySpec, N: int, cap: int | None = None) -> list[int]:
    """psi_0..psi_N (psi_0 = 0), psi_n the coefficient of x^n/n in log F,
    from the family's construction."""
    return spec.construction.psi(N, cap)


def psi_value(spec: FamilySpec, n: int, cap: int | None = None) -> Fraction:
    """psi_n alone, read from psi_table."""
    if n < 1:
        raise ValueError("psi is defined for n >= 1")
    return Fraction(psi_table(spec, n, cap=cap)[n])


def decomposition(spec: FamilySpec) -> tuple[Fraction, Fraction]:
    """The family's row (c1, c2): psi_n = c1 beta^-n + atilde_n with
    |atilde_n| <= c2 alpha^-n, where beta = q^-s and alpha^-2 = q^s for
    the base q and the degree step s."""
    return spec.construction.row()


# -- the polynomial-in-q representation ------------------------------

_LANDAU_POLY_CACHE: list[QPoly] = []


def count_landau_poly_in_q(n: int) -> QPoly:
    """B(n, q) as a polynomial in a formal q, exact in every odd q at once."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < len(_LANDAU_POLY_CACHE):
        return _LANDAU_POLY_CACHE[n]
    twice = _norm_twice_psi(CHI_MINUS_T, QPoly.q_power, n)
    log_coeffs = [QPoly.from_const(Fraction(0))] + [twice[j] / (2 * j) for j in range(1, n + 1)]
    F = series.series_exp(series.TruncatedSeries(tuple(log_coeffs)))
    _LANDAU_POLY_CACHE.clear()
    _LANDAU_POLY_CACHE.extend(
        c if isinstance(c, QPoly) else QPoly.from_const(Fraction(c)) for c in F.coeffs
    )
    return _LANDAU_POLY_CACHE[n]


# -- membership oracles ----------------------------------------------


def membership_rule(field: FieldSpec, spec: FamilySpec) -> MembershipRule:
    """The family's membership rule over field, validated here; a curve
    of genus >= 1 has none."""
    spec.validate()
    return spec.construction.rule(field)


def membership_oracle(field: FieldSpec, fact: Factorization, spec: FamilySpec) -> bool:
    """Decide membership of f from its factorization, which the caller
    made with ffield.factor.

    The family's rule runs on a PrimeTable of f's primes, as the sieve's
    does on its own.  Prime codes are int64, so q^(deg f + 1) past 2^63
    raises ResourceLimit.
    """
    rule = membership_rule(field, spec)
    factors = fact.factors
    degree = sum(P.degree * e for P, e in factors)
    if degree == 0:
        return True
    if field.q ** (degree + 1) >= 1 << 63:
        raise ResourceLimit(f"prime codes of degree {degree} over {field} exceed int64")
    table = universe.PrimeTable(
        field, np.array([ffield.code_of(field, P.coeffs) for P, _ in factors], dtype=np.int64),
        np.array([P.degree for P, _ in factors], dtype=np.int64))
    mult = np.array([e for _, e in factors], dtype=np.int64)
    return bool(rule.passes(rule.admissible(table), mult).all())


def oracle_count(field: FieldSpec, spec: FamilySpec, degree: int,
                 cap: int | None = None) -> int:
    """Exhaustive count of degree-n members, independent of the series:
    the shared Universe's sieve factors the whole degree at once, and the
    family's one membership_rule runs on its masks."""
    rule = membership_rule(field, spec)
    if degree == 0:
        return 1
    return universe.get_universe(field, degree, cap=cap).count(rule, degree)


# -- the exhaustive representation search ----------------------------

_REP_CACHE: dict[tuple, frozenset] = {}


def _rep_members(field: FieldSpec, max_degree: int) -> frozenset:
    key = (field.p, field.k, field.modulus, max_degree)
    cached = _REP_CACHE.get(key)
    if cached is not None:
        return cached
    q = field.q
    a_codes = q ** (max_degree // 2 + 1)
    b_codes = q ** ((max_degree - 1) // 2 + 1) if max_degree >= 1 else 1
    if a_codes * b_codes > 4 * 10**6:
        raise ResourceLimit("representation search space too large")
    decode = ffield.coeffs_of_code
    members = set()
    squares_a = [ffield.poly_mul(field, decode(field, c), decode(field, c))
                 for c in range(a_codes)]
    for cb in range(b_codes):
        B = decode(field, cb)
        tb2 = ffield.poly_mul(field, (0, 1), ffield.poly_mul(field, B, B))
        for A2 in squares_a:
            f = ffield._poly_add(field, A2, tb2)  # () for the zero polynomial
            if f and f[-1] == 1 and len(f) - 1 <= max_degree:
                members.add(f)
    result = frozenset(members)
    _REP_CACHE[key] = result
    return result


def rep_search_membership(field: FieldSpec, f: MonicPoly) -> bool:
    """Secondary oracle: search exhaustively for A, B with f = A^2 + T B^2."""
    return f.coeffs in _rep_members(field, f.degree)
