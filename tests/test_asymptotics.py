"""Certified coefficient estimation: identities, thresholds, enclosures."""

import math
import random
from fractions import Fraction

import mpmath
import pytest

from fqtcount import asymptotics, families
from fqtcount.asymptotics import (
    EstimatorSpec,
    _default_eval_terms,
    _to_mpf,
    binom_frac,
    psi_residual_check,
    estimate_coefficient,
    estimator_for,
    exact_ratio,
    falling_factorial,
    finite_difference_identity,
    finite_difference_tail_bound,
    derivative_envelope,
    simplified_bound_threshold,
)
from fqtcount.constants import constant_Cam, constant_Cq, constant_Kq
from fqtcount.errors import (
    ExpansionOrderTooLarge,
    HypothesisViolation,
    IntegerC1,
)
from fqtcount.families import FamilySpec, canonical_family, count_table
from fqtcount.ffield import MonicPoly, field_for_order
from fqtcount.primecounts import LPolynomial
from fqtcount.series import TruncatedSeries
from stepwise_arithmetic import stepwise_falling_factorials
from test_series import fraction_exp


def landau_spec(q):
    return FamilySpec(canonical_family("landau"), q=q)


def test_falling_factorial_and_binom():
    assert falling_factorial(Fraction(5), 3) == 60
    assert falling_factorial(Fraction(1, 2), 2) == Fraction(-1, 4)
    assert falling_factorial(Fraction(3), 0) == 1
    assert binom_frac(Fraction(5), 2) == 10
    assert binom_frac(Fraction(-1, 2), 3) == Fraction(-5, 16)


# integers, halves (the b_n tops n - 1/2), -1/2, and c1/c2 values of the
# families' rows, alone and as the tops n + c - 1 of binom(n + c - 1, n)
_FALLING_TOPS = sorted({Fraction(v) for v in range(-4, 8)}
                       | {Fraction(v, 2) for v in (-7, -3, -1, 1, 3, 5, 179, 299, 359)}
                       | {c + shift for c in (Fraction(1, 8), Fraction(1, 3), Fraction(1, 2),
                                              Fraction(5), Fraction(16, 3), Fraction(21))
                          for shift in (-1, 0, 149, 184)})


@pytest.mark.parametrize("x", _FALLING_TOPS, ids=str)
def test_falling_factorial_equals_the_stepwise_product(x):
    # the single product over b^j (and j! for binom_frac) against one
    # Fraction multiply per factor, for j = 0..250
    for j, ref in enumerate(stepwise_falling_factorials(x, 250)):
        assert falling_factorial(x, j) == ref, j
        assert binom_frac(x, j) == ref / math.factorial(j), j


def test_finite_difference_identity_exact_on_random_inputs():
    rng = random.Random(11)
    for _ in range(200):
        c1 = Fraction(rng.randint(1, 13), rng.choice([2, 3, 4, 5, 7]))
        if c1.denominator == 1:
            continue
        n = rng.randint(1, 30)
        i = rng.randint(0, n)
        lhs, rhs = finite_difference_identity(c1, n, i)
        assert lhs == rhs


def test_finite_difference_identity_rejects_integer_c1():
    with pytest.raises(IntegerC1):
        finite_difference_identity(Fraction(2), 5, 1)


def test_finite_difference_tail_bound_dominates():
    rng = random.Random(5)
    for _ in range(60):
        c1 = Fraction(rng.randint(1, 6), rng.choice([2, 3, 5, 7]))
        if c1 >= 1 or c1 <= 0:
            continue
        n = rng.randint(3, 25)
        m = rng.randint(0, min(3, n - 1))
        i = rng.randint(m + 1, n)
        lhs, rhs = finite_difference_tail_bound(c1, m, i, n)
        assert float(lhs) <= rhs + 1e-12


def test_derivative_envelope_dominates_derivatives():
    est = estimator_for(landau_spec(3))
    for i in range(4):
        lhs, rhs = derivative_envelope(est, i, est.beta)
        assert lhs <= rhs


def test_simplified_bound_threshold_frozen_values():
    import math

    for q, expected in ((3, 149), (5, 92), (9, 62)):
        got = simplified_bound_threshold(0.5, 1.0, q**-0.5)
        assert got == expected
    for q, expected in ((3, 49), (5, 31), (9, 21)):
        got = simplified_bound_threshold(0.5, 0.5, 1.0 / q)
        assert got == expected
    # progression family: c2 = deg(m) + 3
    assert simplified_bound_threshold(1.0 / 8, 4.0, 9**-0.5) == 149
    assert simplified_bound_threshold(0.5, 4.0, 3**-0.5) == 359


def test_simplified_bound_threshold_guards():
    with pytest.raises(HypothesisViolation):
        simplified_bound_threshold(0.5, 1.0, 1.2)
    with pytest.raises(HypothesisViolation):
        simplified_bound_threshold(1.5, 1.0, 0.5)


def test_estimator_parameters_per_family():
    est = estimator_for(landau_spec(3))
    assert (est.c1, est.c2, est.beta) == (
        Fraction(1, 2),
        Fraction(1),
        Fraction(1, 3),
    )
    assert est.r_squared == Fraction(1, 3)
    est = estimator_for(FamilySpec(canonical_family("s1"), q=3))
    assert (est.c1, est.c2, est.beta) == (
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 9),
    )
    assert est.r_squared == Fraction(1, 9)
    est = estimator_for(
        FamilySpec(canonical_family("arith"), q=9, m=(0, 1), a=(1,))
    )
    assert est.c1 == Fraction(1, 8)
    assert est.c2 == Fraction(4)
    L = LPolynomial(5, (1, -2, 5))
    est = estimator_for(
        FamilySpec(canonical_family("divisors"), l_poly=L, r=2)
    )
    assert est.c1 == Fraction(1, 2)
    assert est.c2 == Fraction(16, 2)
    assert est.beta == Fraction(1, 25)
    est = estimator_for(
        FamilySpec(
            canonical_family("divisors-r-ell-K"), l_poly=L, r=2, ell=1
        )
    )
    assert est.c2 == Fraction(42, 2)


@pytest.mark.parametrize("r, ell, row", [
    (2, None, (Fraction(1, 2), Fraction(1, 2))),  # s2's row
    (2, 1, (Fraction(1, 2), Fraction(1))),  # s3's row
    (2, 2, (Fraction(1, 2), Fraction(42, 2))),
    (3, None, (Fraction(1, 3), Fraction(16, 3))),
    (3, 1, (Fraction(1, 3), Fraction(42, 3))),
])
def test_genus_zero_rows(r, ell, row):
    # genus 0 at r = 2 takes the proved s2 and s3 rows; the rest keep the
    # divisor lemmas' constants
    L = LPolynomial(3, (1,))
    family = "divisors" if ell is None else "divisors-r-ell-K"
    est = estimator_for(FamilySpec(family, l_poly=L, r=r, ell=ell))
    assert (est.c1, est.c2) == row
    if r == 2 and ell in (None, 1):
        alias = estimator_for(FamilySpec("s2" if ell is None else "s3", q=3))
        assert (alias.c1, alias.c2, alias.beta) == (est.c1, est.c2, est.beta)
        assert alias.numerators(60)[0][:61] == est.numerators(60)[0][:61]


def test_estimator_rejects_trivial_unit_group():
    spec = FamilySpec(canonical_family("arith"), q=2, m=(0, 1), a=(1,))
    with pytest.raises(HypothesisViolation):
        estimator_for(spec)


def test_spec_validation_gates():
    good = estimator_for(landau_spec(3))
    bad_r = EstimatorSpec(
        atilde_table=good.atilde_table,
        c1=Fraction(1, 2),
        c2=Fraction(1),
        beta=Fraction(1, 3),
        alpha_inv_sq=Fraction(9),  # r^2 = 1 > 1/2
    )
    with pytest.raises(HypothesisViolation):
        bad_r.validate()
    bad_c1 = EstimatorSpec(
        atilde_table=good.atilde_table,
        c1=Fraction(1),
        c2=Fraction(1),
        beta=Fraction(1, 3),
        alpha_inv_sq=Fraction(3),
    )
    with pytest.raises(HypothesisViolation):
        bad_c1.validate()


def test_coefficient_envelope_enforced():
    est = estimator_for(landau_spec(3))
    # e_n fits under c2 * alpha^{-n} for every n it is asked for
    est.numerators(29)
    shrunk = EstimatorSpec(
        atilde_table=est.atilde_table,
        c1=est.c1,
        c2=Fraction(1, 100),
        beta=est.beta,
        alpha_inv_sq=est.alpha_inv_sq,
    )
    with pytest.raises(HypothesisViolation):
        shrunk.numerators(6)


def test_coefficient_envelope_exact_past_float_range():
    # alpha^-2 = 101 and c2 = 3/2: at n >= 200 both sides exceed 1e308
    q, c2 = 101, Fraction(3, 2)
    for n in (200, 201, 250, 651):
        k = math.isqrt(9 * q**n)  # the largest k with (k/2)^2 <= c2^2 q^n
        for value, breach in ((k, False), (-k, False), (k + 1, True), (-k - 1, True)):
            # a table over 2 that is 0 but for the numerator value at n
            est = EstimatorSpec(
                atilde_table=lambda N, n=n, value=value: (
                    [value if j == n else 0 for j in range(N + 1)], 2),
                c1=Fraction(1, 2), c2=c2, beta=Fraction(1, q), alpha_inv_sq=Fraction(q))
            assert (Fraction(value, 2) ** 2 > c2**2 * est.alpha_inv_sq**n) == breach
            if breach:
                with pytest.raises(HypothesisViolation, match=f"n = {n}:"):
                    est.numerators(n)
            else:
                assert est.numerators(n)[0][n] == value


class _EdgeTable:
    """atilde_n = +-k_n / 2 on the envelope's edge for c2 = 3/2, alpha^-2 = q:
    k_n is the largest k with (k/2)^2 <= c2^2 q^n; push[n] moves one entry."""

    def __init__(self, q, push=None):
        self.q, self.push, self.calls = q, push or {}, []

    def table(self, N):
        self.calls.append(N)
        A = [0] + [(-1) ** n * math.isqrt(9 * self.q**n) for n in range(1, N + 1)]
        for n, step in self.push.items():
            if n <= N:
                A[n] += step if A[n] > 0 else -step
        return A, 2


def _edge_estimator(source):
    q = source.q
    return EstimatorSpec(atilde_table=source.table, c1=Fraction(1, 2), c2=Fraction(3, 2),
                         beta=Fraction(1, q), alpha_inv_sq=Fraction(q))


@pytest.mark.parametrize("q", [3, 101])
def test_table_source_envelope_checked_at_every_n(q):
    source = _EdgeTable(q)
    est = _edge_estimator(source)
    A, D = est.numerators(60)  # every entry sits on the edge and passes
    assert (A[7], D) == (-math.isqrt(9 * q**7), 2)
    assert est.numerators(30) == (A, D)  # served from the kept table
    assert source.calls == [60]
    for n in (1, 2, 17, 60):
        with pytest.raises(HypothesisViolation, match=f"n = {n}:"):
            _edge_estimator(_EdgeTable(q, {n: 1})).numerators(60)
    # growing a table checks the new entries too
    est = _edge_estimator(_EdgeTable(q, {45: 1}))
    est.numerators(40)
    with pytest.raises(HypothesisViolation, match="n = 45:"):
        est.exp_series(50)


def test_estimator_for_keeps_one_estimator_per_key(monkeypatch):
    monkeypatch.setattr(asymptotics, "_ESTIMATOR_CACHE", {})
    monkeypatch.delenv("FQT_CAP", raising=False)
    est = estimator_for(landau_spec(3))
    assert estimator_for(landau_spec(3), 0, None, None) is est
    others = [
        estimator_for(landau_spec(3), m=1),
        estimator_for(landau_spec(3), m=1, error_constant=Fraction(24)),
        estimator_for(landau_spec(3), cap=10**6),
        estimator_for(landau_spec(5)),
        estimator_for(FamilySpec(canonical_family("s1"), q=3)),
    ]
    # cap None reads FQT_CAP at every enumeration, so its value is part of the key
    monkeypatch.setenv("FQT_CAP", "50")
    others.append(estimator_for(landau_spec(3)))
    assert len({id(e) for e in [est, *others]}) == 7
    assert estimator_for(landau_spec(3)) is others[-1]
    monkeypatch.delenv("FQT_CAP")
    assert estimator_for(landau_spec(3)) is est


def test_kept_estimator_checks_only_new_entries(monkeypatch):
    monkeypatch.setattr(asymptotics, "_ESTIMATOR_CACHE", {})
    checked, tables = [], []
    check, psi_table = EstimatorSpec._check_envelope, families.psi_table

    def recorded(self, numerators, D, start):
        checked.append((start, len(numerators)))
        return check(self, numerators, D, start)

    monkeypatch.setattr(EstimatorSpec, "_check_envelope", recorded)
    monkeypatch.setattr(families, "psi_table",
                        lambda spec, N, cap=None: tables.append(N) or psi_table(spec, N, cap))
    short = estimator_for(landau_spec(3)).numerators(20)
    long = estimator_for(landau_spec(3)).numerators(50)
    assert long[0][:21] == short[0] and long[1] == short[1]
    assert estimator_for(landau_spec(3)).numerators(40)[0] is long[0]
    assert checked == [(1, 20), (21, 30)]
    assert tables == [20, 50]


def test_failed_checks_are_not_kept(monkeypatch):
    monkeypatch.setattr(asymptotics, "_ESTIMATOR_CACHE", {})
    row = families.decomposition
    # c2 = 1/100 puts the envelope under landau's atilde_n from n = 1
    monkeypatch.setattr(families, "decomposition",
                        lambda spec: (row(spec)[0], Fraction(1, 100)))
    est = estimator_for(landau_spec(3))
    for _ in range(2):
        with pytest.raises(HypothesisViolation, match="envelope breached"):
            estimator_for(landau_spec(3)).numerators(6)
    assert estimator_for(landau_spec(3)) is est and not est._cache
    # an estimator that fails validate() is never stored
    monkeypatch.setattr(families, "decomposition", lambda spec: (Fraction(1), Fraction(1)))
    for _ in range(2):
        with pytest.raises(HypothesisViolation, match="c1 = 1"):
            estimator_for(landau_spec(5))
    monkeypatch.setattr(families, "decomposition", row)
    with pytest.raises(ValueError, match="nonnegative"):
        estimator_for(landau_spec(3), m=-1)
    assert list(asymptotics._ESTIMATOR_CACHE.values()) == [est]


def test_estimate_encloses_exact_ratio_all_families():
    cases = [
        (landau_spec(3), 60),
        (FamilySpec(canonical_family("s1"), q=3), 40),
        (FamilySpec(canonical_family("s2"), q=3), 40),
        (FamilySpec(canonical_family("s3"), q=3), 40),
        (FamilySpec(canonical_family("arith"), q=3, m=(0, 1), a=(1,)), 45),
        (
            FamilySpec(
                canonical_family("divisors"),
                l_poly=LPolynomial(3, (1,)),
                r=2,
            ),
            15,
        ),
    ]
    for spec, n in cases:
        est = estimator_for(spec)
        result = estimate_coefficient(est, n)
        value = count_table(spec, n).value(n)
        ratio = exact_ratio(value, est, n)
        assert result.certified
        assert result.contains_ratio(ratio), spec.family
        lo, hi = result.ratio_interval()
        assert lo <= float(ratio) <= hi


def test_estimate_in_range_flag_and_threshold():
    est = estimator_for(landau_spec(3))
    low = estimate_coefficient(est, 2)
    high = estimate_coefficient(est, 149)
    assert low.threshold == 149
    assert not low.in_range
    assert high.in_range
    assert low.simplified_error_bound is None
    assert high.simplified_error_bound is not None
    # the simplified bound weakens the sharp one
    assert high.simplified_error_bound >= high.error_bound * 0.5


def test_estimate_order_gates():
    est = estimator_for(landau_spec(3), m=5)
    with pytest.raises(ExpansionOrderTooLarge):
        estimate_coefficient(est, 4)
    est = estimator_for(landau_spec(3), m=1)
    with pytest.raises(HypothesisViolation):
        estimate_coefficient(est, 30)
    est = estimator_for(landau_spec(3), m=1, error_constant=Fraction(1000))
    result = estimate_coefficient(est, 30)
    assert not result.certified
    value = count_table(landau_spec(3), 30).value(30)
    assert result.contains_ratio(exact_ratio(value, est, 30))


_EVAL_SPECS = (
    landau_spec(3),
    landau_spec(101),
    FamilySpec(canonical_family("s1"), q=3),
    FamilySpec(canonical_family("s3"), q=5),
    FamilySpec(canonical_family("arith"), q=3, m=(1, 0, 1), a=(1,)),
    FamilySpec(canonical_family("divisors"), l_poly=LPolynomial(5, (1, 2, 5)), r=2),
)
_H_REFERENCE = {}


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("m", [0, 1, 2])
@pytest.mark.parametrize("spec", _EVAL_SPECS, ids=lambda s: s.label)
def test_eval_tail_bound_covers_the_main_term(spec, m, digits):
    est = estimator_for(spec, m=m, error_constant=Fraction(24))
    n = 30
    result = estimate_coefficient(est, n, digits=digits)
    finer = estimate_coefficient(est, n, digits=2 * digits)
    # the exact h-series at twice the terms: M = sum_k w_k sum_i binom(i, k) h_i
    terms = 2 * _default_eval_terms(est, digits)
    if len(_H_REFERENCE.get(spec.label, ())) <= terms:
        _H_REFERENCE[spec.label] = est.exp_series(terms)
    h = _H_REFERENCE[spec.label]
    reference = sum(
        binom_frac(k - est.c1, k) / binom_frac(n + est.c1 - 1, k)
        * sum(math.comb(i, k) * h[i] for i in range(k, terms + 1))
        for k in range(m + 1))
    with mpmath.workdps(2 * digits + 20):
        assert abs(result.main_term - finer.main_term) <= result.eval_tail_bound
        assert abs(result.main_term - _to_mpf(reference)) <= result.eval_tail_bound


def test_exact_ratio_inverts_b_n():
    est = estimator_for(landau_spec(3))
    n = 10
    value = count_table(landau_spec(3), n).value(n)
    ratio = exact_ratio(value, est, n)
    b_n = binom_frac(n + est.c1 - 1, n) * est.beta**-n
    assert ratio * b_n == value


def test_psi_residual_bounds():
    for q, coeffs in ((3, (1,)), (5, (1, -2, 5)), (3, (1, 0, 3))):
        L = LPolynomial(q, coeffs)
        for r in (2, 3):
            for ell in (None, 1, 3):
                for n in range(1, 9):
                    report = psi_residual_check(L, r, ell, n)
                    assert report.ok, (coeffs, r, ell, n)
                    assert report.ratio <= report.bound


def test_divisor_estimate_threshold_frozen():
    # the bounded family's larger envelope constant gives the later threshold
    L = LPolynomial(5, (1, -2, 5))
    bounded = estimator_for(FamilySpec("divisors-r-ell-K", l_poly=L, r=2, ell=1))
    assert not estimate_coefficient(bounded, 501).in_range
    result = estimate_coefficient(bounded, 502)
    assert (result.threshold, result.in_range) == (502, True)
    unbounded = estimator_for(FamilySpec("divisors", l_poly=L, r=2))
    assert estimate_coefficient(unbounded, 502).threshold == 176


def _main_term_matches(spec, report):
    """The m=0 main term is a(beta): the limiting constant, within both tails."""
    result = estimate_coefficient(estimator_for(spec), 50)
    tails = result.eval_tail_bound + min(m.tail_bound for m in report.methods)
    with mpmath.workdps(60):
        gap = abs(result.main_term - report.consensus)
    return gap <= tails * (1 + 1e-9)


def test_main_term_at_m0_is_the_limiting_constant():
    for q in (3, 5):
        cases = [("landau", constant_Kq(q))] + [
            (f"s{which}", constant_Cq(q, which)) for which in (1, 2, 3)
        ]
        for name, report in cases:
            spec = FamilySpec(canonical_family(name), q=q)
            assert _main_term_matches(spec, report), (name, q)
    spec = FamilySpec(canonical_family("arith"), q=3, m=(0, 1), a=(1,))
    report = constant_Cam(field_for_order(3), (1,), MonicPoly((0, 1)))
    assert _main_term_matches(spec, report)


def _exp_series_rows():
    L = LPolynomial(5, (1, 2, 5))
    for name, q in (("landau", 3), ("s1", 3), ("s2", 3), ("s3", 3), ("s3", 5)):
        yield FamilySpec(canonical_family(name), q=q)
    yield FamilySpec(canonical_family("arith"), q=3, m=(1, 0, 1), a=(1, 1))
    yield FamilySpec(canonical_family("divisors"), l_poly=L, r=2)
    yield FamilySpec(canonical_family("divisors-r-ell-K"), l_poly=L, r=2, ell=2)


@pytest.mark.parametrize("spec", list(_exp_series_rows()), ids=lambda s: s.label)
def test_exp_series_matches_the_beta_scaled_formula(spec):
    # h = exp(sum atilde_j beta^j y^j / j) computed on Fractions, term by term
    est = estimator_for(spec)
    terms = 90
    A, D = est.numerators(terms)
    log = [Fraction(0)] + [Fraction(A[j], D) * est.beta**j / j for j in range(1, terms + 1)]
    want = fraction_exp(TruncatedSeries(tuple(log)))
    assert est.exp_series(terms) == want
    assert estimator_for(spec).exp_series(40) == want[:41]
