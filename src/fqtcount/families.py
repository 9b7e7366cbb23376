"""Exact counts for the polynomial and divisor families.

Each family is a multiplicative semigroup (possibly with a squarefree
or bounded-multiplicity restriction) that is free on a known set of
generators; the number of degree-n members is therefore a coefficient
of an infinite product built from per-degree generator counts.

This module is the one place a family is described: psi_table gives
the log-coefficients psi_0..psi_N of F = exp(sum psi_n x^n / n) as
Python ints in one pass, and decomposition the row (c1, c2) of the
split psi_n = c1 beta^-n + atilde_n, |atilde_n| <= c2 alpha^-n.  Count
tables, the estimators in asymptotics and the series forms of the
constants all derive from these two; psi_value is one entry of the
table.  A table lives with the count_table call or estimator that asked
for it: nothing here caches psi.  generator_counts and the membership
oracles recount the same sets independently, as the reference the
checks compare against; both oracles (the universe sieve over a whole
degree, and ffield.factor of one polynomial) run the family's one
membership_rule, and both read each prime's degree, character and
residues from a universe.PrimeTable.

Index conventions: the even-degree families s1/s2/s3 are tabulated by
half-degree and the divisor families by degree/r; the landau and
progression families use the degree itself.  CountTable records the
step in its parameters so serialized tables are unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

ALL_FAMILIES = (
    FAMILY_LANDAU,
    FAMILY_S1,
    FAMILY_S2,
    FAMILY_S3,
    FAMILY_DIVISORS,
    FAMILY_DIVISORS_ELL,
    FAMILY_ARITH,
)

_ALIASES = {
    "landau": FAMILY_LANDAU,
    "s1": FAMILY_S1,
    "s2": FAMILY_S2,
    "s3": FAMILY_S3,
    "divisors": FAMILY_DIVISORS,
    "arith": FAMILY_ARITH,
}

_SHORT_NAMES = {family: name for name, family in _ALIASES.items()}

_POLY_FAMILIES = (FAMILY_LANDAU, FAMILY_S1, FAMILY_S2, FAMILY_S3, FAMILY_ARITH)


def canonical_family(name: str) -> str:
    if name in ALL_FAMILIES:
        return name
    if name in _ALIASES:
        return _ALIASES[name]
    raise ValueError(f"unknown family {name!r}")


def _v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def _twice_e(power, n: int):
    """2 e_n = 1 + sum_{i=1..v2(n)} (q^(n >> i) - 1), with power(k) = q^k."""
    return 1 + sum(power(n >> i) - 1 for i in range(1, _v2(n) + 1))


def _twice_f(power, n: int):
    """2 f_n = q^m, m the odd part of n, with power(k) = q^k."""
    return power(n >> _v2(n))


def _twice_psi(family: str, power, n: int):
    """2 psi_n of the landau and s1-s3 families, with power(k) = q^k.

    The one closed form of each; power may return ints or QPoly
    monomials, so the same lines give psi_table and the landau counts
    with q left symbolic.
    """
    if family == FAMILY_LANDAU:
        return power(n) + _twice_e(power, n)
    top = power(2 * n)
    if family == FAMILY_S1:
        return top + _twice_f(power, n)
    if family == FAMILY_S2:
        return top - _twice_f(power, n)
    if n % 2:
        return top - power(n)
    return top - 2 * power(n) + _twice_f(power, n)


def e_n(q: int, n: int) -> Fraction:
    """Fluctuation of the landau log-coefficients around q^n/2."""
    return Fraction(_twice_e(q.__pow__, n), 2)


def f_n(q: int, n: int) -> Fraction:
    """Fluctuation of the s1 log-coefficients around q^{2n}/2."""
    return Fraction(_twice_f(q.__pow__, n), 2)


def e_n_poly(n: int) -> QPoly:
    """e_n with q left symbolic."""
    return (QPoly.from_const(0) + _twice_e(QPoly.q_power, n)) / 2


@dataclass(frozen=True)
class FamilySpec:
    """Which family, over which base object, with which parameters.

    F_q[T] families carry q (the canonical field of that order is
    implied); divisor families carry an LPolynomial and r, with ell
    present only for the bounded-multiplicity variant; the progression
    family carries modulus and residue coefficient tuples.  family may
    be given by an alias; it is stored as the canonical name.
    """

    family: str
    q: int | None = None
    r: int | None = None
    ell: int | None = None
    l_poly: LPolynomial | None = None
    m: tuple[int, ...] | None = None
    a: tuple[int, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "family", canonical_family(self.family))

    def validate(self) -> None:
        family = self.family
        if family in _POLY_FAMILIES:
            if self.q is None:
                raise ValueError(f"family {family} needs q")
            field = self.field()
            if family == FAMILY_LANDAU and field.q % 2 == 0:
                raise EvenCharacteristic("the A^2 + T B^2 family needs odd q")
            if family == FAMILY_ARITH:
                if self.m is None or self.a is None:
                    raise ValueError("the progression family needs m and a")
                m = MonicPoly(self.m)
                if m.degree < 1:
                    raise ValueError("the modulus must have positive degree")
                a = ffield.poly_mod_general(field, self.a, m.coeffs)
                if a == (0,) or ffield.poly_gcd(field, a, m.coeffs) != (1,):
                    raise NotCoprime("residue must be coprime to the modulus")
        else:
            if self.l_poly is None:
                raise ValueError(f"family {family} needs an L-polynomial")
            if self.r is None or self.r < 2:
                raise ValueError("divisor families need r >= 2")
            if family == FAMILY_DIVISORS_ELL:
                if self.ell is None or self.ell < 1:
                    raise ValueError("bounded-multiplicity variant needs ell >= 1")
            elif self.ell is not None:
                raise ValueError("unbounded variant takes no ell")

    def field(self) -> FieldSpec:
        if self.q is None:
            raise ValueError("this family is not over F_q[T]")
        return ffield.field_for_order(self.q)

    @property
    def degree_step(self) -> int:
        """Degree of the counted objects per unit of table index."""
        if self.family in (FAMILY_S1, FAMILY_S2, FAMILY_S3):
            return 2
        if self.family in (FAMILY_DIVISORS, FAMILY_DIVISORS_ELL):
            return self.r
        return 1

    @property
    def base_q(self) -> int:
        """Order of the constant field: q, or L.q for the divisor families."""
        if self.family in _POLY_FAMILIES:
            return self.q
        return self.l_poly.q

    @property
    def label(self) -> str:
        family = self.family
        if family == FAMILY_ARITH:
            return f"arith q={self.q} m={MonicPoly(self.m)}"
        if family in _POLY_FAMILIES:
            return f"{_SHORT_NAMES[family]} q={self.q}"
        ell = f" ell={self.ell}" if family == FAMILY_DIVISORS_ELL else ""
        return f"divisors r={self.r}{ell} q={self.l_poly.q}"

    def generator_counts(self, N: int, cap: int | None = None) -> dict[int, int]:
        """Free-generator count at each table index 1..N."""
        family = self.family
        g: dict[int, int] = {}
        if family == FAMILY_LANDAU:
            q = self.field().q
            for n in range(1, N + 1):
                g[n] = pi_chi2(q, n, CHI2_ZERO_OR_PLUS)
                if n % 2 == 0:
                    g[n] += pi_chi2(q, n // 2, CHI2_MINUS)
        elif family == FAMILY_S1:
            q = self.field().q
            for n in range(1, N + 1):
                g[n] = pi_q(q, 2 * n) + (pi_q(q, n) if n % 2 else 0)
        elif family in (FAMILY_S2, FAMILY_S3):
            q = self.field().q
            for n in range(1, N + 1):
                g[n] = pi_q(q, 2 * n)
        elif family == FAMILY_ARITH:
            field = self.field()
            m = MonicPoly(self.m)
            # one residue check, and one class-count pass over 1..N
            a_code = _unit_residue(field, self.a, m)
            g = dict(enumerate(_class_counts(field, N, a_code, m, cap), start=1))
        elif family == FAMILY_DIVISORS:
            for n in range(1, N + 1):
                g[n] = pi_K(self.l_poly, self.r * n)
        else:
            step = self.ell + 1
            for n in range(1, N + 1):
                g[n] = pi_K(self.l_poly, self.r * n)
                if n % step == 0:
                    g[n] -= pi_K(self.l_poly, self.r * n // step)
                if g[n] < 0:
                    raise NegativeCount(
                        f"effective generator count negative at index {n}"
                    )
        return g

    def params_json(self) -> dict:
        family = self.family
        out: dict = {"degree_per_index": self.degree_step}
        if family in _POLY_FAMILIES:
            out["q"] = self.q
            if family == FAMILY_ARITH:
                out["m"] = ffield.poly_to_string(MonicPoly(self.m))
                out["a"] = ffield.poly_to_string(self.a)
        else:
            out["l_polynomial"] = self.l_poly.to_json()
            out["r"] = self.r
            out["ell"] = self.ell if self.ell is not None else "unbounded"
        return out


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
    if which not in (1, 2, 3):
        raise ValueError("which must be 1, 2 or 3")
    family = (FAMILY_S1, FAMILY_S2, FAMILY_S3)[which - 1]
    return count_table(FamilySpec(family, q=q), N)


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


# -- the log-coefficients --------------------------------------------


def psi_table(spec: FamilySpec, N: int, cap: int | None = None) -> list[int]:
    """psi_0..psi_N (psi_0 = 0), psi_n the coefficient of x^n/n in log F.

    The one description of each family's log-coefficients: the weighted
    divisor sum over generators, with alternating signs for the
    squarefree variant.  landau and s1-s3 use their closed forms over one
    running list of powers of q; every halving is checked exact, and an
    odd numerator raises NegativeCount.  arith counts the class primes
    of degrees 1..N in one pass (primecounts._class_counts), the divisor
    families the places once per degree,
    and one weighted divisor pass sums them; the ell variant subtracts
    (ell+1) psi_(n/(ell+1)) of the unbounded family.
    """
    family = spec.family
    if family in (FAMILY_LANDAU, FAMILY_S1, FAMILY_S2, FAMILY_S3):
        powers = [1]
        for _ in range(N if family == FAMILY_LANDAU else 2 * N):
            powers.append(powers[-1] * spec.q)
        psi = [0]
        for n in range(1, N + 1):
            twice = _twice_psi(family, powers.__getitem__, n)
            if twice % 2:
                raise NegativeCount(f"non-integral log-coefficient at index {n}")
            psi.append(twice // 2)
        return psi
    if family == FAMILY_ARITH:
        field, m = spec.field(), MonicPoly(spec.m)
        a_code = _unit_residue(field, spec.a, m)
        counts = dict(enumerate(_class_counts(field, N, a_code, m, cap), start=1))
        return [0, *series._weighted_divisor_sums(counts, N).values()]
    counts = {d: pi_K(spec.l_poly, spec.r * d) for d in range(1, N + 1)}
    unbounded = [0, *series._weighted_divisor_sums(counts, N).values()]
    if family == FAMILY_DIVISORS:
        return unbounded
    step = spec.ell + 1
    return [v - step * unbounded[n // step] if n and n % step == 0 else v
            for n, v in enumerate(unbounded)]


def psi_value(spec: FamilySpec, n: int, cap: int | None = None) -> Fraction:
    """psi_n alone, read from psi_table."""
    if n < 1:
        raise ValueError("psi is defined for n >= 1")
    return Fraction(psi_table(spec, n, cap=cap)[n])


# -- the decomposition row -------------------------------------------

# certified envelope constants of the divisor families, per genus and r
DIVLEM_CONSTANT_UNBOUNDED = 16
DIVLEM_CONSTANT_BOUNDED = 42

_HALF = Fraction(1, 2)
_ROWS = {
    FAMILY_LANDAU: (_HALF, Fraction(1)),
    FAMILY_S1: (_HALF, _HALF),
    FAMILY_S2: (_HALF, _HALF),
    FAMILY_S3: (_HALF, Fraction(1)),
}


def decomposition(spec: FamilySpec) -> tuple[Fraction, Fraction]:
    """The family's row (c1, c2): psi_n = c1 beta^-n + atilde_n with
    |atilde_n| <= c2 alpha^-n, where beta = q^-s and alpha^-2 = q^s for
    the base q and the degree step s."""
    family = spec.family
    if family == FAMILY_ARITH:
        m = MonicPoly(spec.m)
        phi = phi_m(spec.field(), m)
        if phi < 2:
            raise HypothesisViolation(
                "phi(m) = 1 makes c1 = 1, outside the open interval (0, 1)"
            )
        return Fraction(1, phi), Fraction(m.degree + 3)
    if family in _POLY_FAMILIES:
        return _ROWS[family]
    constant = (DIVLEM_CONSTANT_UNBOUNDED if family == FAMILY_DIVISORS
                else DIVLEM_CONSTANT_BOUNDED)
    return Fraction(1, spec.r), Fraction(constant * max(spec.l_poly.genus, 1), spec.r)


# -- the polynomial-in-q representation ------------------------------

_LANDAU_POLY_CACHE: list[QPoly] = []


def count_landau_poly_in_q(n: int) -> QPoly:
    """B(n, q) as a polynomial in a formal q, exact in every odd q at once."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n < len(_LANDAU_POLY_CACHE):
        return _LANDAU_POLY_CACHE[n]
    log_coeffs: list = [QPoly.from_const(Fraction(0))]
    for j in range(1, n + 1):
        log_coeffs.append(_twice_psi(FAMILY_LANDAU, QPoly.q_power, j) / (2 * j))
    F = series.series_exp(series.TruncatedSeries(tuple(log_coeffs)))
    _LANDAU_POLY_CACHE.clear()
    _LANDAU_POLY_CACHE.extend(
        c if isinstance(c, QPoly) else QPoly.from_const(Fraction(c)) for c in F.coeffs
    )
    return _LANDAU_POLY_CACHE[n]


# -- membership oracles ----------------------------------------------


@dataclass(frozen=True)
class MembershipRule:
    """An F_q[T] family's membership rule, in the one form both oracles run.

    f is a member when every prime power P^e exactly dividing it passes:
    passes(admissible(P), e).  admissible reads a universe.PrimeTable
    through prime_deg, prime_chi2() and prime_residues(m) and gives a
    bool array over its primes; passes works elementwise on arrays.  Both
    oracles hand it a PrimeTable: the Universe's own, or the one
    membership_oracle builds from one factorization.  key names the rule
    in a Universe's mask cache.
    """

    key: tuple
    admissible: Callable
    passes: Callable


# which multiplicities e pass, given the prime's admissibility (default: good)
_PASSES = {
    FAMILY_LANDAU: lambda good, e: good | (e % 2 == 0),
    FAMILY_S1: lambda good, e: good | (e % 2 == 0),
    FAMILY_S3: lambda good, e: good & (e == 1),
}


def membership_rule(field: FieldSpec, spec: FamilySpec) -> MembershipRule:
    """The membership rule of an F_q[T] family, validated here: a prime P
    is admissible when chi2(P) != -1 (landau), deg P is even (s1-s3) or
    P = a mod m (arith); _PASSES says which multiplicities pass."""
    if spec.family not in _POLY_FAMILIES:
        raise ValueError("membership is defined for the F_q[T] families only")
    spec.validate()
    passes = _PASSES.get(spec.family, lambda good, e: good)
    if spec.family == FAMILY_LANDAU:
        return MembershipRule((spec.family,), lambda primes: primes.prime_chi2() != -1, passes)
    if spec.family == FAMILY_ARITH:
        m = MonicPoly(spec.m)
        a_code = _residue_code(field, spec.a, m)
        return MembershipRule((spec.family, m.coeffs, a_code),
                              lambda primes: primes.prime_residues(m) == a_code, passes)
    return MembershipRule((spec.family,), lambda primes: primes.prime_deg % 2 == 0, passes)


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
