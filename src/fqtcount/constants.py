"""The limiting constants of the counting families, with certified tails.

Each constant is evaluated by at least two independent formulas.  Every
method reports (value, tail_bound) where the true constant provably
lies within tail_bound of value: omitted tails are bounded by elementary
envelopes, and the final exponential converts a one-sided log tail t
into the symmetric bound value * (exp(t) - 1).  Floating-point bound
arithmetic is padded with small safety factors.

Long sums run in integer fixed point at scale 2^P, P = mpmath.mp.prec +
GUARD_BITS, i.e. 64 bits beyond the working precision.  Each term is a
Python int floor((numerator << P) // denominator) of an exact rational,
so a sum of k terms falls short of the exact one by less than k ulps of
2^-P.  (_euler_log_sum and _artanh_sum reach the same floors through
running quotients, floor(floor(x / a) / b) = floor(x / (a b)), dividing
by a small power and by the term's index rather than by their product;
their terms, and so their ledgers, are the direct floors'.)  These ulps
form a rounding ledger that is added to the tail of the sum it belongs
to:

* asymptotics._atilde_sum (every "series" method, C_{q,3}'s composed
  method, and the estimator's main terms) adds N * 2^-P;
* _euler_log_sum (the Euler products of K_q and C_{q,1}) adds one ulp
  per term and two per degree for the truncated series in k, and the
  caller adds that to the Euler product's log tail etail;
* _artanh_sum, artanh(1/y) = sum over odd j of y^-j / j, adds one ulp
  per term and two for the truncated series.  Every other logarithm is
  one of these: log((y + 1) / y) = 2 artanh(1/(2y + 1)), so the nested
  products of K_q and C_{q,1} and K_q's prime-at-zero factor are
  weighted artanh sums (_weighted_artanh), exact integers over one
  power of two whose ledgers join the nested tail and etail.  mpmath
  is left with the final exp, one sqrt (C_{q,3}), conversion and
  printing.

A ledger term is far below 10^-(digits + 8), the floor _floor_tail puts
under every declared tail, and at high precision it underflows a float
altogether; either way the floor covers it.

Conventions: K_q is the limiting ratio for the quadratic-form family
(odd q); C_{q,1..3} belong to the three half-degree families; c_q and
c'_q are the first-order correction coefficients; C_{a,m} is the
limiting ratio for primes in a residue class.

The "series" method of every constant sums the family's exponent
coefficients atilde_n, read as integer numerators from its estimator's
table (asymptotics.estimator_for).  estimator_for keeps one estimator
per family for the session, so every sum over one family, within one
constant or across constants (K_q and c_q; C_{q,1}, C_{q,3} and c'_q;
C_{a,m}'s two truncations), reads one table, built once and grown.
Each finished report is kept too, in _REPORT_CACHE, by constant and
normalised arguments (q, which, digits; for C_{a,m} its kept estimator
and digits): a repeated call, positional or by keyword, returns the same
report, and C_{q,2}'s reciprocal method reads the kept C_{q,1} report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath

from . import families
from .asymptotics import (_PAD, GUARD_BITS, EstimatorSpec, _atilde_sum, _to_mpf,
                          estimator_for)
from .errors import EvenCharacteristic
from .families import FamilySpec
from .ffield import FieldSpec, MonicPoly, field_for_order
from .primecounts import CHI2_MINUS, _residue_coeffs, psi_chi2
from .series import g_from_psi


def _floor_tail(x: float, digits: int = 290) -> float:
    """Declared tails also absorb working-precision rounding noise.

    Computations run at digits + 15 decimal places, so flooring the
    truncation bound at 10^-(digits + 8) keeps it an honest bound on
    |reported - true| while staying far below the precision goal.  The
    floor also absorbs the fixed-point rounding ledger (see the module
    docstring): a ledger of k ulps is k * 2^-P < k * 10^-(digits + 34),
    and the floor stays in force when that ledger underflows a float.
    """
    return max(x, 10.0 ** -(digits + 8), 1e-290)


@dataclass(frozen=True)
class ConstantMethod:
    """One evaluation route: a value and a bound on its truncation error."""

    tag: str
    value: object  # mpmath.mpf
    tail_bound: float


@dataclass(frozen=True)
class ConstantReport:
    """A constant with all its evaluation methods and the consensus value."""

    name: str
    q: int | None
    methods: tuple[ConstantMethod, ...]

    @property
    def consensus(self):
        """The value of the method with the smallest declared tail."""
        return min(self.methods, key=lambda m: m.tail_bound).value

    def agreement(self) -> bool:
        """Do all method pairs agree within their combined tails?"""
        with mpmath.workdps(80):
            for i, a in enumerate(self.methods):
                for b in self.methods[i + 1:]:
                    gap = abs(a.value - b.value)
                    if gap > (a.tail_bound + b.tail_bound) * _PAD:
                        return False
        return True

    def to_json(self, digits: int = 30) -> dict:
        with mpmath.workdps(digits + 5):
            return {
                "name": self.name,
                "q": self.q,
                "methods": [
                    {
                        "tag": m.tag,
                        "value": mpmath.nstr(m.value, digits),
                        "tail_bound": f"{m.tail_bound:.6e}",
                    }
                    for m in self.methods
                ],
                "consensus": mpmath.nstr(self.consensus, digits),
            }


# one report per constant and normalised arguments, for the life of the
# process; unbounded, like primecounts._ARITH_CACHE.  Only finished
# reports are stored, so a call that raises raises again.
_REPORT_CACHE: dict[tuple, ConstantReport] = {}


def _keep(key: tuple, report: ConstantReport) -> ConstantReport:
    _REPORT_CACHE[key] = report
    return report


def _exp_method(tag: str, log_value, log_tail: float, digits: int) -> ConstantMethod:
    """exp(log_value), where the mpf log_value is within log_tail of the true log."""
    value = mpmath.e**log_value
    tail = float(value) * math.expm1(log_tail) * _PAD if log_tail > 0 else 0.0
    return ConstantMethod(tag, value, _floor_tail(tail, digits))


def _series_method(tag: str, est: EstimatorSpec, N: int, digits: int) -> ConstantMethod:
    """exp of the family's exponent series sum_{n <= N} atilde_n beta^n / n."""
    S, tail = _atilde_sum(est, N)
    return _exp_method(tag, _to_mpf(S), tail, digits)


def _euler_log_sum(q: int, weights) -> tuple[Fraction, Fraction]:
    """-sum_d w_d / 2 * log(1 - q^(-2d)) over (d, w_d) pairs, and its ledger.

    Each degree sums the exact series sum_k q^(-2dk) / k in fixed point at
    scale 2^P, stopping at the first k whose term w_d 2^P // (k q^(2dk))
    is 0.  That term's exact value is below 2^-P, so the omitted
    remainder, at most q^(2d) / (q^(2d) - 1) <= 4/3 times it, is below two
    ulps.  With one ulp per floor, the returned S and the exact ledger,
    both over 2^(P+1) for the factor 1/2, satisfy
    S <= true value < S + ledger.

    The terms are formed by small divisions: with y = q^(2d), the running
    quotient R_k = floor(w_d 2^P / y^k) is R_1 = (w_d << P) // y and
    R_(k+1) = R_k // y, and term k is R_k // k.  For an integer x and
    integers a, b >= 1, floor(floor(x / a) / b) = floor(x / (a b)), so
    each term, the stopping k and the ledger are those of the direct
    floor; only the divisors shrink from k y^k to y and k.
    """
    P = mpmath.mp.prec + GUARD_BITS
    total = ulps = 0
    for d, w in weights:
        if w == 0:
            continue
        y = q ** (2 * d)
        k, R = 1, (w << P) // y
        while term := R // k:
            total += term
            k, R = k + 1, R // y
        ulps += k + 1  # k - 1 floors, two for the remainder
    return Fraction(total, 1 << (P + 1)), Fraction(ulps, 1 << (P + 1))


def _artanh_sum(y: int) -> tuple[int, int]:
    """S = sum over odd j of floor(2^P / (j y^j)) for an integer y >= 2, and
    its ledger in ulps of 2^-P: S <= 2^P artanh(1/y) < S + ulps.

    The running quotient R_j = floor(2^P / y^j) is R_1 = 2^P // y and
    R_(j+2) = R_j // y^2, and term j is R_j // j, the direct floor, as
    floor(floor(x / a) / b) = floor(x / (a b)).  The sum stops at the
    first zero term; that term's exact value is below one ulp, and the
    omitted remainder is at most y^2 / (y^2 - 1) <= 4/3 times it.  So the
    ledger is one ulp per term added and two for the remainder.
    """
    P = mpmath.mp.prec + GUARD_BITS
    y2 = y * y
    total, j, R = 0, 1, (1 << P) // y
    while term := R // j:
        total += term
        j, R = j + 2, R // y2
    return total, (j - 1) // 2 + 2


def _weighted_artanh(pairs: list[tuple[int, int]]) -> tuple[Fraction, Fraction]:
    """sum of 2^-e artanh(1/y) over (y, e) pairs, e >= 0, as one exact
    fraction over 2^(P + max e), and its ledger: S <= true value < S + ledger."""
    P = mpmath.mp.prec + GUARD_BITS
    top = max(e for _, e in pairs)
    total = ulps = 0
    for y, e in pairs:
        S, u = _artanh_sum(y)
        total += S << (top - e)
        ulps += u << (top - e)
    return Fraction(total, 1 << (P + top)), Fraction(ulps, 1 << (P + top))


def _series_terms(q: int, digits: int, half: bool) -> int:
    """Terms so the geometric log tail drops below the precision goal."""
    scale = 2 if half else 1
    return max(8, math.ceil(scale * (digits + 6) * math.log(10) / math.log(q)) + 2)


def _nested_depth(q: int, digits: int) -> int:
    need = (digits + 6) * math.log(10) / math.log(q)
    return max(2, math.ceil(math.log2(need)))


def constant_Kq(q: int, digits: int = 30) -> ConstantReport:
    """The quadratic-form family constant, by three independent formulas.

    (i) exp of the exact exponent series; (ii) the nested product of
    doubly-shrinking factors, its log one weighted artanh sum; (iii) the
    Euler product over primes with residue character -1 (_euler_log_sum)
    plus the prime-at-zero factor, artanh(1/(2q - 1)) in its log.  Each
    fixed-point ledger joins its method's log tail.
    """
    if q % 2 == 0:
        raise EvenCharacteristic("this constant needs odd q")
    if q < 3:
        raise ValueError("need a prime power q >= 3")
    key = ("K_q", q, digits)
    if key in _REPORT_CACHE:
        return _REPORT_CACHE[key]
    with mpmath.workdps(digits + 15):
        # series: log K = sum atilde_n q^-n / n, 0 < atilde_n <= q^(n/2)
        N = _series_terms(q, digits, half=True)
        est = estimator_for(FamilySpec(families.FAMILY_LANDAU, q=q))
        series = _series_method("series", est, N, digits)

        # nested product: prod_k (1+x_k)^(2^-k-1) (1 - q x_k^2)^(-2^-k-2),
        # x_k = q^(-2^k); omitted factors exceed 1, log bounded by 3x.  With
        # y_k = q^(2^k): log1p(x_k) = 2 artanh(1/(2 y_k + 1)), and
        # -log1p(-q x_k^2) = 2 artanh(1/(2 y_k^2 / q - 1))
        K = _nested_depth(q, digits)
        S, ledger = _weighted_artanh(
            [(2 * q ** (2**k) + 1, k) for k in range(K + 1)]
            + [(2 * q ** (2 ** (k + 1) - 1) - 1, k + 1) for k in range(K + 1)])
        ntail = 0.0
        for k in range(K + 1, K + 4):
            xk = float(q) ** -(2.0**k)
            ntail += 2.0 ** -(k + 1) * (xk + 2 * q * xk * xk)
        nested = _exp_method("nested-product", _to_mpf(S),
                             ntail * 2 * _PAD + float(ledger), digits)

        # Euler product over chi2 = -1 primes, grouped by degree
        D = _series_terms(q, digits, half=False)
        counts = g_from_psi({d: psi_chi2(q, d, CHI2_MINUS) for d in range(1, D + 1)}, D)
        S, ledger = _euler_log_sum(q, ((d, counts.count(d)) for d in range(1, D + 1)))
        # the prime at zero: -log(1 - 1/q) / 2 = artanh(1/(2q - 1))
        S0, ledger0 = _weighted_artanh([(2 * q - 1, 0)])
        etail = (float(q) ** -(D + 1) / (1 - 1 / q) / (D + 1) * 2 * _PAD
                 + float(ledger + ledger0))
        euler = _exp_method("euler-product", _to_mpf(S + S0), etail, digits)

    return _keep(key, ConstantReport("K_q", q, (series, nested, euler)))


def constant_Cq(q: int, which: int, digits: int = 30) -> ConstantReport:
    """The half-degree family constants C_{q,1}, C_{q,2}, C_{q,3}.

    C_{q,1} gets three methods (series, nested product as one weighted
    artanh sum, Euler product over odd-degree primes, each fixed-point
    ledger in its log tail); C_{q,2} the series plus the reciprocal of
    C_{q,1}; C_{q,3} the series plus its factorization through the
    square-distinguishing product identity.
    """
    if q < 2:
        raise ValueError("need a prime power q >= 2")
    if which not in (1, 2, 3):
        raise ValueError("which must be 1, 2, or 3")
    key = ("C_q", q, which, digits)
    if key in _REPORT_CACHE:
        return _REPORT_CACHE[key]
    with mpmath.workdps(digits + 15):
        N = _series_terms(q, digits, half=False)
        est = estimator_for(FamilySpec(f"s{which}", q=q))
        series = _series_method("series", est, N, digits)
        if which == 1:
            # nested: prod_k ((1+z_k)/(1-z_k))^(2^-k-2), z_k = q^(1-2^(k+1)),
            # each factor's log 2 artanh(z_k) / 2^(k+2)
            K = _nested_depth(q, digits)
            S, ledger = _weighted_artanh([(q ** (2 ** (k + 1) - 1), k + 1) for k in range(K + 1)])
            ntail = 0.0
            for k in range(K + 1, K + 4):
                zk = float(q) ** (1 - 2.0 ** (k + 1))
                ntail += 3 * zk / 2.0 ** (k + 2)
            nested = _exp_method("nested-product", _to_mpf(S),
                                 2 * ntail * _PAD + float(ledger), digits)

            # Euler product over odd-degree primes
            D = N
            counts = g_from_psi({d: q**d for d in range(1, D + 1)}, D)
            S, ledger = _euler_log_sum(q, ((d, counts.count(d)) for d in range(1, D + 1, 2)))
            etail = (float(q) ** -(D + 1) / (1 - 1 / q) / (D + 1) * 2 * _PAD
                     + float(ledger))
            euler = _exp_method("euler-product", _to_mpf(S), etail, digits)
            return _keep(key, ConstantReport("C_{q,1}", q, (series, nested, euler)))

        if which == 2:
            c1 = constant_Cq(q, 1, digits)
            base = c1.consensus
            t_best = min(m.tail_bound for m in c1.methods)
            value = 1 / base
            rtail = t_best * float(value) ** 2 / (1 - t_best * float(value)) * _PAD
            recip = ConstantMethod("reciprocal", value, _floor_tail(rtail, digits))
            return _keep(key, ConstantReport("C_{q,2}", q, (series, recip)))

        # which == 3, composed: sqrt(1 - q^-2) * a1(q^-4) / C_{q,1} with a1
        # the analytic factor of the s1 family, evaluated off the singularity
        s1 = estimator_for(FamilySpec(families.FAMILY_S1, q=q))
        S1, t1 = _atilde_sum(s1, N)
        S_a, ta = _atilde_sum(s1, N, x=s1.beta**2)
        value = mpmath.sqrt(1 - mpmath.mpf(q) ** -2) * mpmath.e ** _to_mpf(S_a - S1)
        ctail = float(value) * math.expm1(ta + t1) * _PAD
        composed = ConstantMethod("composed", value, _floor_tail(ctail, digits))
        return _keep(key, ConstantReport("C_{q,3}", q, (series, composed)))


def _half_series(est: EstimatorSpec, N: int, digits: int) -> ConstantMethod:
    """The correction coefficient (1/2) sum_{n <= N} atilde_n beta^n."""
    S, tail = _atilde_sum(est, N, 1)
    return ConstantMethod("series", _to_mpf(S / 2), _floor_tail(tail / 2, digits))


def constant_cq(q: int, digits: int = 30) -> ConstantReport:
    """First-order correction for the quadratic-form family.

    Series form (1/2) sum atilde_i q^-i against the exact reorganized form
    (1/4)[1/(q-1) + sum_j (1/(q^(2^j - 1) - 1) - 1/(q^(2^j) - 1))].
    """
    if q % 2 == 0:
        raise EvenCharacteristic("this constant needs odd q")
    key = ("c_q", q, digits)
    if key in _REPORT_CACHE:
        return _REPORT_CACHE[key]
    with mpmath.workdps(digits + 15):
        N = _series_terms(q, digits, half=True)
        est = estimator_for(FamilySpec(families.FAMILY_LANDAU, q=q))
        series = _half_series(est, N, digits)

        J = _nested_depth(q, digits)
        C = Fraction(1, q - 1)
        for j in range(1, J + 1):
            C += Fraction(1, q ** (2**j - 1) - 1) - Fraction(1, q ** (2**j) - 1)
        C /= 4
        ctail = _floor_tail(2.0 * float(q) ** -(2.0 ** (J + 1) - 1) * _PAD, digits)
        closed = ConstantMethod("closed-form", _to_mpf(C), ctail)
    return _keep(key, ConstantReport("c_q", q, (series, closed)))


def constant_cq_prime(q: int, digits: int = 30) -> ConstantReport:
    """First-order correction for the first half-degree family.

    Series form (1/2) sum atilde_i q^-2i of the s1 family against the
    exact reorganized form (1/4) sum_j z_j / (1 - z_j^2) with
    z_j = q^(1 - 2^(j+1)).
    """
    if q < 2:
        raise ValueError("need a prime power q >= 2")
    key = ("c'_q", q, digits)
    if key in _REPORT_CACHE:
        return _REPORT_CACHE[key]
    with mpmath.workdps(digits + 15):
        N = _series_terms(q, digits, half=False)
        est = estimator_for(FamilySpec(families.FAMILY_S1, q=q))
        series = _half_series(est, N, digits)

        J = _nested_depth(q, digits)
        C = Fraction(0)
        for j in range(J + 1):
            z = Fraction(1, q ** (2 ** (j + 1) - 1))
            C += z / (1 - z * z)
        C /= 4
        ctail = _floor_tail(float(q) ** -(2.0 ** (J + 2) - 1) * _PAD, digits)
        closed = ConstantMethod("closed-form", _to_mpf(C), ctail)
    return _keep(key, ConstantReport("c'_q", q, (series, closed)))


def constant_Cam(field: FieldSpec, a, m: MonicPoly, digits: int = 30
                 ) -> ConstantReport:
    """The residue-class family constant C_{a,m} = a(1/q).

    Exponent coefficients are the exact prime-sum displacements
    psi(n; a, m) - q^n/phi(m) of the progression family, enveloped by
    (deg m + 3) q^(n/2); the two methods are the series at the standard
    truncation and at twice that truncation.
    """
    if not isinstance(m, MonicPoly):
        m = MonicPoly(m)
    if field != field_for_order(field.q):
        raise ValueError("the progression family uses the default field modulus")
    spec = FamilySpec(families.FAMILY_ARITH, q=field.q, m=m.coeffs,
                      a=_residue_coeffs(field, a))
    est = estimator_for(spec)
    # the kept estimator stands for the family and the cap it answers to
    key = ("C_{a,m}", est, digits)
    if key in _REPORT_CACHE:
        return _REPORT_CACHE[key]
    with mpmath.workdps(digits + 15):
        N = _series_terms(field.q, digits, half=True)
        est.numerators(2 * N)  # one table serves both truncations
        methods = tuple(
            _series_method(tag, est, length, digits)
            for length, tag in ((N, "series"), (2 * N, "series-doubled"))
        )
    return _keep(key, ConstantReport("C_{a,m}", field.q, methods))
