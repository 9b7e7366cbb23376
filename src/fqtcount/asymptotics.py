"""Coefficient estimation with certified error bounds.

The engine handles series of the decomposed shape

    F(x) = a(x) * (1 - x/beta)^(-c1),
    a(x) = exp( sum_{n >= 1} atilde_n x^n / n ),

where a is analytic on a strictly larger disk: |atilde_n| <= c2 *
alpha^(-n) with r = beta/alpha <= 1/sqrt(2).  The n-th coefficient of
F then equals b_n * (M + E) with b_n = binom(n+c1-1, n) beta^(-n), M a
short main term built from a and its derivatives at beta, and |E|
bounded explicitly.  The m=0 bound carries the absolute constant 24
(48 in the simplified large-n form); for m >= 1 only the shape of the
bound is known, so a caller-supplied constant is required and results
are flagged as not certified.

No family is described here: estimator_for reads a family's psi_table
and its (c1, c2) row from the families module, takes beta = q^-s and
alpha^-2 = q^s from the base q and degree step s, and sets atilde_n =
psi_n - c1 beta^(-n), the same for every family.  The estimator holds
these as integer numerators A_n = den(c1) psi_n - num(c1) q^(sn) over
den(c1), for the largest n it was asked for, each checked against the
envelope once.  estimator_for keeps one estimator per family and
arguments for the life of the process (_ESTIMATOR_CACHE), so estimates
and constants of one session grow one checked table per family.

Exactness policy: hypothesis checks (r <= 1/sqrt(2), the coefficient
envelope) compare squared rationals, so irrational alpha never meets
floating point.  Main terms are exp of _atilde_sum's fixed-point sums
(which the constants module shares), each bounded by its truncation
tail plus a rounding ledger; the final mpf steps add their rounding.
Floating-point steps in the bounds are padded with small safety
factors so the reported enclosures stay honest over-estimates.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial
from typing import Callable

import mpmath

from . import families, series
from .errors import (
    ExpansionOrderTooLarge,
    HypothesisViolation,
    IntegerC1,
)
from .families import FamilySpec
from .primecounts import LPolynomial

ERROR_CONSTANT_M0 = 24
NICER_CONSTANT = 48

_PAD = 1 + 1e-9  # multiplicative safety margin on floating-point bounds
GUARD_BITS = 64  # fixed-point bits beyond the working precision


def _falling_product(x: Fraction, j: int, den: int = 1) -> Fraction:
    """(x)_j / den, for x = a/b the integer product of the a - t b, t < j,
    over b^j den: one Fraction, reduced by one gcd."""
    x = Fraction(x)
    a, b = x.numerator, x.denominator
    return Fraction(math.prod(range(a, a - j * b, -b)), b**j * den)


def falling_factorial(x: Fraction, j: int) -> Fraction:
    """(x)_j = x (x-1) ... (x-j+1), formed as the single product
    prod_{t<j} (a - t b) / b^j for x = a/b; a Fraction is canonical, so
    this is the value of the step-by-step product, and (x)_0 = 1."""
    return _falling_product(x, j)


def binom_frac(x: Fraction, j: int) -> Fraction:
    """Generalized binomial coefficient with an exact rational top: (x)_j
    with j! folded into its denominator."""
    return _falling_product(x, j, factorial(j))


def _r_upper(r_squared: Fraction) -> float:
    """A float upper bound on sqrt(r_squared)."""
    return math.sqrt(float(r_squared)) * _PAD


@dataclass(eq=False, frozen=True)
class EstimatorSpec:
    """Decomposition parameters plus the exact exponent coefficients.

    alpha is carried as alpha_inv_sq = alpha^(-2), an exact rational
    even when alpha itself is an irrational square root; beta, c1, c2
    are exact rationals.  atilde_table(N) returns (A, D): integer
    numerators A[0..N] (A[0] = 0) over one denominator D, atilde_n =
    A[n] / D (estimator_for builds one from the family's psi_table).
    It is read only through numerators, which checks every entry
    against the envelope.  Frozen, as estimator_for hands one instance
    to every caller of a session; only its table cache grows.
    """

    atilde_table: Callable[[int], tuple[list[int], int]]
    c1: Fraction
    c2: Fraction
    beta: Fraction
    alpha_inv_sq: Fraction
    m: int = 0
    error_constant: Fraction | None = None
    label: str = ""
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def r_squared(self) -> Fraction:
        return self.beta**2 * self.alpha_inv_sq

    @property
    def r_float(self) -> float:
        return math.sqrt(float(self.r_squared))

    def validate(self) -> None:
        if not (0 < self.c1 < 1):
            raise HypothesisViolation(
                f"c1 = {self.c1} lies outside the open interval (0, 1)"
            )
        if self.c2 <= 0 or self.beta <= 0 or self.alpha_inv_sq <= 0:
            raise HypothesisViolation("c2, beta and alpha must be positive")
        if self.r_squared > Fraction(1, 2):
            raise HypothesisViolation(
                f"r^2 = {self.r_squared} exceeds 1/2: beta is too close to alpha"
            )
        if self.m < 0:
            raise ValueError("expansion order m must be nonnegative")

    def _check_envelope(self, numerators, D: int, start: int) -> None:
        """|a / D| <= c2 alpha^(-n) for the a at n = start, start + 1, ...

        Squared, on integers: (a d)^2 f^n <= (c D)^2 e^n with c2 = c/d and
        alpha^-2 = e/f, the powers of e and f kept running.
        """
        c, d = self.c2.as_integer_ratio()
        e, f = self.alpha_inv_sq.as_integer_ratio()
        bound, scale = (c * D) ** 2 * e**start, f**start
        for n, a in enumerate(numerators, start):
            if (a * d) ** 2 * scale > bound:
                raise HypothesisViolation(
                    f"coefficient envelope breached at n = {n}: "
                    f"|{Fraction(a, D)}| > c2 alpha^-n"
                )
            bound *= e
            scale *= f

    def numerators(self, N: int) -> tuple[list[int], int]:
        """(A, D) with atilde_n = A[n] / D for n = 1..N (A[0] = 0), each
        checked against the envelope |atilde_n| <= c2 alpha^(-n).

        The checked table is kept in _cache and rebuilt only when a
        longer one is asked for; only the new entries are checked.
        """
        A, D = self._cache.get("numerators", ([0], 1))
        if len(A) > N:
            return A, D
        start = len(A)
        A, D = self.atilde_table(N)
        self._check_envelope(A[start:], D, start)
        self._cache["numerators"] = (A, D)
        return A, D

    def exp_series(self, terms: int) -> tuple:
        """Exact coefficients h_0..h_terms of a(beta * y) as a series in y.

        beta is factored out: h_m = H_m beta^m with H = exp(sum atilde_j
        t^j / j).  series_exp works over the common denominator of the
        j a_j, which here are the atilde_j themselves, so it divides the
        numerators' D = den(c1) (2 or 8 in practice).  Fed atilde_j
        beta^j / j instead, D would grow like beta^-N and the
        recurrence's scale N! D^N would explode.  Estimates use _atilde_sum;
        this stays as the exact reference of derivative_envelope and tests.
        """
        cached = self._cache.get("exp_series")
        if cached is not None and len(cached) >= terms + 1:
            return cached[: terms + 1]
        A, D = self.numerators(terms)
        log_coeffs = [0] + [Fraction(A[j], D * j) for j in range(1, terms + 1)]
        H = series.series_exp(series.TruncatedSeries(tuple(log_coeffs))).coeffs
        h = tuple(H_m * self.beta**m for m, H_m in enumerate(H))
        self._cache["exp_series"] = h
        return h


@dataclass(frozen=True)
class EstimateResult:
    """One certified coefficient estimate: f_n = b_n * (M + E)."""

    n: int
    b_n: Fraction
    main_term: object  # mpmath.mpf
    error_bound: float
    eval_tail_bound: float
    certified: bool
    threshold: int
    in_range: bool
    simplified_error_bound: float | None
    label: str

    def ratio_interval(self) -> tuple[float, float]:
        """Enclosure of f_n / b_n from the full error bound."""
        w = self.error_bound + self.eval_tail_bound
        return (float(self.main_term) - w, float(self.main_term) + w)

    def contains_ratio(self, ratio: Fraction, simplified: bool = False) -> bool:
        """Does the enclosure contain the exact ratio f_n / b_n?"""
        err = self.simplified_error_bound if simplified else self.error_bound
        if err is None:
            return False
        with mpmath.workdps(60):
            gap = abs(_to_mpf(ratio) - self.main_term)
            return gap <= err + self.eval_tail_bound


def _to_mpf(x: Fraction):
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)


def simplified_bound_threshold(c1, c2, r) -> int:
    """Smallest n from which the simplified one-term error bound holds."""
    c1, c2, r = float(c1), float(c2), float(r)
    if not (0 < r <= 1 / math.sqrt(2) * _PAD):
        raise HypothesisViolation(f"r = {r} outside (0, 1/sqrt(2)]")
    if not (0 < c1 < 1):
        raise HypothesisViolation(f"c1 = {c1} outside (0, 1)")
    lam = math.log(1 / r)
    t = (2 * c2 + 4) / lam
    n1 = 1 + 5 * (t + 1) * math.log(t + 1)
    n2 = 1 + 2 * math.log(1 / c1) / lam
    return math.ceil(max(n1, n2))


def finite_difference_identity(c1: Fraction, n: int, i: int) -> tuple[Fraction, Fraction]:
    """Both exact sides of the finite-difference binomial identity."""
    c1 = Fraction(c1)
    if c1.denominator == 1:
        raise IntegerC1("the identity needs a non-integer c1")
    if not 0 <= i <= n:
        raise ValueError("need 0 <= i <= n")
    lhs = (-1) ** i * binom_frac(-c1, n - i) / binom_frac(-c1, n)
    rhs = Fraction(0)
    for k in range(i + 1):
        rhs += (
            Fraction(math.comb(i, k))
            * binom_frac(k - c1, k)
            / binom_frac(n + c1 - 1, k)
        )
    return lhs, rhs


def finite_difference_tail_bound(c1: Fraction, m: int, i: int, n: int) -> tuple[Fraction, float]:
    """Exact left side and upper bound for the tail of the finite-difference expansion.

    Requires m < i <= n.  The bound branches on i < n versus i = n.
    """
    c1 = Fraction(c1)
    if not (0 < c1 < 1):
        raise HypothesisViolation("c1 must lie in (0, 1)")
    if not m < i <= n:
        raise ValueError("need m < i <= n")
    lhs = Fraction(0)
    for k in range(m + 1, i + 1):
        lhs += (
            Fraction(math.comb(i, k))
            * binom_frac(k - c1, k)
            / binom_frac(n + c1 - 1, k)
        )
    if i < n:
        rhs = float(
            falling_factorial(Fraction(i), m + 1)
            / falling_factorial(n + c1 - 1, m + 1)
            * (i - m)
        )
    else:
        rhs = n * (math.log(n - m) + 2 / float(c1))
    return lhs, rhs


def derivative_envelope(spec: EstimatorSpec, i: int, x: Fraction, terms: int = 80
                  ) -> tuple[float, float]:
    """Truncated |a^(i)(x)| next to its derivative envelope.

    Returns (series value, envelope) where the envelope is
    alpha^(-i) (c2+i-1)_i (1 - x/alpha)^(-c2-i); x must satisfy
    0 <= x <= beta so the truncation tail is covered by the envelope's
    geometric majorant.  It sums the exact exp_series table, a route
    independent of the estimator's own evaluation.
    """
    x = Fraction(x)
    if not 0 <= x <= spec.beta:
        raise ValueError("x must lie in [0, beta]")
    h = spec.exp_series(terms)
    # a^(i)(x) = sum_j (j)_i h_j beta^(-j) x^(j-i)  with h_j = a_j beta^j
    total = Fraction(0)
    for j in range(i, terms + 1):
        total += falling_factorial(Fraction(j), i) * h[j] * x ** (j - i) / spec.beta**j
    alpha_inv = math.sqrt(float(spec.alpha_inv_sq))
    x_over_alpha = float(x) * alpha_inv
    envelope = (
        alpha_inv**i
        * float(falling_factorial(spec.c2 + i - 1, i))
        * (1 - x_over_alpha) ** (-float(spec.c2) - i)
    )
    return abs(float(total)), envelope


# -- the estimator ---------------------------------------------------


def _atilde_sum(est: EstimatorSpec, N: int, i: int = 0,
                x: Fraction | None = None) -> tuple[Fraction, float]:
    """u_i = sum_{n <= N} w_i(n) atilde_n x^n (x = beta by default), w_0(n) =
    1/n, w_i(n) = binom(n-1, i-1), and a bound on its error.

    With |atilde_n x^n| <= c2 rho^n, rho = x / alpha, the tail is c2
    rho^(N+1) / ((N+1)(1 - rho)) at i = 0, and at i >= 1, as the terms'
    ratio n rho / (n-i+1) falls with n, c2 binom(N, i-1) rho^(N+1) / (1 -
    theta), theta = (N+1) rho / (N+2-i).  The fixed-point sum at scale 2^P
    is short by less than N * 2^-P, a ledger the bound includes.
    """
    x = est.beta if x is None else x
    rho = _r_upper(x * x * est.alpha_inv_sq)
    P = mpmath.mp.prec + GUARD_BITS
    A, D = est.numerators(N)
    S, xn_num, xn_den = 0, 1, D  # x^n / D = xn_num / xn_den, kept unreduced
    for n in range(1, N + 1):
        xn_num *= x.numerator
        xn_den *= x.denominator
        w, d = (math.comb(n - 1, i - 1), 1) if i else (1, n)
        S += (A[n] * w * xn_num << P) // (xn_den * d)
    if i:
        theta = rho * ((N + 1) / (N + 2 - i))
        if theta >= 1:
            raise HypothesisViolation("eval_terms too short for a convergent tail bound")
        tail = float(est.c2) * math.comb(N, i - 1) * rho ** (N + 1) / (1 - theta)
    else:
        tail = float(est.c2) * rho ** (N + 1) / ((N + 1) * (1 - rho))
    return Fraction(S, 1 << P), tail * _PAD + math.ldexp(N, -P)


def _t_series(weights, u) -> Fraction:
    """sum_k weights_k [t^k] exp(sum_{i=1..m} u_i t^i / i) for u = (u_1..u_m)."""
    log = (0, *(u_i / i for i, u_i in enumerate(u, 1)))
    E = series.series_exp(series.TruncatedSeries(log)).coeffs
    return sum((w_k * E_k for w_k, E_k in zip(weights, E)), Fraction(0))


def _default_eval_terms(spec: EstimatorSpec, digits: int) -> int:
    r_up = _r_upper(spec.r_squared)
    need = (digits + 8) * math.log(10) / math.log(1 / r_up)
    return max(48, spec.m + 8, math.ceil(need))


def estimate_coefficient(spec: EstimatorSpec, n: int,
                         digits: int = 30) -> EstimateResult:
    """Certified estimate of the n-th coefficient ratio f_n / b_n.

    Returns main term M with |f_n / b_n - M| <= error_bound +
    eval_tail_bound whenever the decomposition hypotheses hold; they
    are checked on every exponent coefficient the evaluation touches.

    With h_i = [y^i] a(beta y), w_k = binom(k - c1, k) / binom(n + c1 - 1, k)
    and the _atilde_sum sums u_i, log a(beta (1 + t)) = u_0 + sum_i u_i t^i / i
    gives M = sum_{k <= m} w_k sum_i binom(i, k) h_i = exp(u_0) sum_k w_k [t^k]
    exp(sum_{i=1..m} u_i t^i / i).  Each [t^k] exp(...) is a polynomial in
    the u_i with positive coefficients, so eval_tail_bound = exp(u_0)
    (expm1(tau_0) G+ + G+ - G-), G+ and G- the exact sums of |w_k| [t^k]
    exp(...) at |u_i| + tau_i and at |u_i| (tau_i: tail plus ledger), plus
    (|u_0| + 8) 2^(1 - prec) |M| for the mpf rounding.
    """
    spec.validate()
    if spec.m >= n:
        raise ExpansionOrderTooLarge(f"expansion order {spec.m} needs n > m")
    if spec.m == 0:
        constant = Fraction(ERROR_CONSTANT_M0)
        certified = True
    else:
        if spec.error_constant is None:
            raise HypothesisViolation(
                "m >= 1 has no certified absolute constant: set error_constant"
            )
        constant = Fraction(spec.error_constant)
        certified = False
    terms = _default_eval_terms(spec, digits)

    b_n = binom_frac(n + spec.c1 - 1, n) * spec.beta ** (-n)

    w = [binom_frac(k - spec.c1, k) / binom_frac(n + spec.c1 - 1, k)
         for k in range(spec.m + 1)]
    with mpmath.workdps(digits + 10):
        u0, tail0 = _atilde_sum(spec, terms)
        sums = [_atilde_sum(spec, terms, i) for i in range(1, spec.m + 1)]
        main_term = mpmath.exp(_to_mpf(u0)) * _to_mpf(_t_series(w, [u for u, _ in sums]))
        prec = mpmath.mp.prec
    size = [abs(w_k) for w_k in w]
    G_hi = _t_series(size, [abs(u) + Fraction(t) for u, t in sums])
    G_lo = _t_series(size, [abs(u) for u, _ in sums])
    eval_tail = (math.exp(float(u0)) * (math.expm1(tail0) * float(G_hi) + float(G_hi - G_lo))
                 * _PAD + float(abs(main_term)) * math.ldexp(abs(float(u0)) + 8, 1 - prec))

    r_up = _r_upper(spec.r_squared)
    front = float(constant) * math.exp(3 * float(spec.c2) * r_up)
    term1 = (r_up / n) ** (spec.m + 1) * float(
        falling_factorial(spec.c2 + spec.m, spec.m + 1)
    )
    log_term2 = (
        math.log10(float(binom_frac(n + spec.c2 - 1, n)))
        + math.log10(4 * n * n / float(spec.c1))
        + n * math.log10(r_up)
    )
    term2 = 10 ** max(log_term2, -280.0)
    error_bound = front * (term1 + term2) * _PAD

    threshold = simplified_bound_threshold(spec.c1, spec.c2, spec.r_float)
    in_range = n >= threshold
    simplified = None
    if in_range and spec.m == 0:
        simplified = (
            NICER_CONSTANT
            * math.exp(3 * float(spec.c2) * r_up)
            * float(spec.c2)
            * r_up
            / n
            * _PAD
        )

    return EstimateResult(
        n=n,
        b_n=b_n,
        main_term=main_term,
        error_bound=error_bound,
        eval_tail_bound=eval_tail,
        certified=certified,
        threshold=threshold,
        in_range=in_range,
        simplified_error_bound=simplified,
        label=spec.label,
    )


# -- family decompositions -------------------------------------------


# one estimator per (spec, m, error_constant, cap), kept for the life of
# the process once it validates; unbounded, like primecounts._ARITH_CACHE
_ESTIMATOR_CACHE: dict[tuple, EstimatorSpec] = {}


def estimator_for(spec: FamilySpec, m: int = 0,
                  error_constant: Fraction | None = None,
                  cap: int | None = None) -> EstimatorSpec:
    """The certified decomposition of one family's series.

    atilde_n = psi_n - c1 beta^-n from the family's psi_table and its
    (c1, c2) row; no family is special-cased here.  Equal arguments get
    the same estimator, so its checked numerators table is built once
    and only grown: a longer call checks just the new entries.  An
    estimator is kept only once validate() passes, and a table whose
    check fails is not kept, so the failure repeats on the next call.
    With cap None the table reads FQT_CAP at every enumeration, so the
    key holds the variable's value in its place.
    """
    key = (spec, m, error_constant, os.environ.get("FQT_CAP") if cap is None else cap)
    est = _ESTIMATOR_CACHE.get(key)
    if est is not None:
        return est
    spec.validate()
    c1, c2 = families.decomposition(spec)
    q_s = spec.base_q**spec.degree_step  # beta = q^-s, alpha^-2 = q^s
    c, D = c1.as_integer_ratio()

    def atilde_table(N: int) -> tuple[list[int], int]:
        """A_n = D psi_n - c q_s^n over D = den(c1), from one psi_table
        pass; nothing is kept here, the estimator keeps the table."""
        psi = families.psi_table(spec, N, cap=cap)
        A, power = [0], 1
        for n in range(1, N + 1):
            power *= q_s
            A.append(D * psi[n] - c * power)
        return A, D

    est = EstimatorSpec(
        atilde_table=atilde_table,
        c1=c1,
        c2=c2,
        beta=Fraction(1, q_s),
        alpha_inv_sq=Fraction(q_s),
        m=m,
        error_constant=error_constant,
        label=spec.label,
    )
    est.validate()
    _ESTIMATOR_CACHE[key] = est
    return est


def exact_ratio(value: int, est: EstimatorSpec, n: int) -> Fraction:
    """f_n / b_n for an exact table value."""
    b_n = binom_frac(n + est.c1 - 1, n) * est.beta ** (-n)
    return Fraction(value) / b_n


# -- divisor-family residual checks ----------------------------------


@dataclass(frozen=True)
class ResidualReport:
    """One psi residual against its certified envelope."""

    n: int
    psi: Fraction
    ratio: float
    bound: int
    ok: bool


def psi_residual_check(L: LPolynomial, r: int, ell: int | None, n: int) -> ResidualReport:
    """|atilde_n| = |psi - q^{rn}/r| against c2 q^{rn/2}, exactly.

    bound = c2 r / max(g, 1) is the row's scale (families.Places.row):
    the divisor lemmas' 16 unbounded and 42 bounded, or 1 and 2 for the
    s2 and s3 rows of genus 0 at r = 2.  Both sides are squared so the
    q^{rn/2} scale stays rational; the ratio, on the scale of bound, is a
    float for display only.
    """
    fam = (families.FAMILY_DIVISORS if ell is None else families.FAMILY_DIVISORS_ELL)
    est = estimator_for(FamilySpec(fam, l_poly=L, r=r, ell=ell))
    A, D = est.atilde_table(n)  # unchecked: a breach is reported, not raised
    residual = Fraction(A[n], D)
    bound = est.c2 * r / max(L.genus, 1)
    # ratio^2 = (atilde_n / c2)^2 alpha^{2n} bound^2
    ratio_sq = residual**2 / (est.c2**2 * est.alpha_inv_sq**n) * bound**2
    return ResidualReport(
        n=n,
        psi=residual + est.c1 * est.beta**-n,
        ratio=math.sqrt(float(ratio_sq)),
        bound=int(bound),
        ok=ratio_sq <= bound**2,
    )
