"""Limiting constants by independent methods with declared tail bounds."""

import ast
import inspect
import json
import math
from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest

from fqtcount import asymptotics, constants, families, primecounts
from fqtcount.asymptotics import GUARD_BITS, _atilde_sum, _to_mpf, estimator_for
from fqtcount.cli import main
from fqtcount.constants import (
    ConstantReport,
    _artanh_sum,
    _euler_log_sum,
    constant_Cam,
    constant_Cq,
    constant_Kq,
    constant_cq,
    constant_cq_prime,
)
from fqtcount.errors import EvenCharacteristic, HypothesisViolation
from fqtcount.families import FamilySpec
from fqtcount.ffield import MonicPoly, build_field, field_for_order, poly_from_string
from fqtcount.primecounts import CHI2_MINUS, pi_chi2, pi_q
from stepwise_arithmetic import direct_artanh_sum, direct_euler_log_sum


def close(report, decimal_string, places=12):
    with mpmath.workdps(40):
        return abs(report.consensus - mpmath.mpf(decimal_string)) < 10.0**-places


def test_kq_frozen_value_and_agreement():
    report = constant_Kq(3)
    assert len(report.methods) == 3
    assert report.agreement()
    assert close(report, "1.320270787229792")


def test_kq_rejects_even_q():
    with pytest.raises(EvenCharacteristic):
        constant_Kq(4)


def test_cq1_frozen_value_and_agreement():
    report = constant_Cq(3, 1)
    assert len(report.methods) == 3
    assert report.agreement()
    assert close(report, "1.200343123221874")


def test_cq2_is_reciprocal_of_cq1():
    c1 = constant_Cq(3, 1)
    c2 = constant_Cq(3, 2)
    assert close(c2, "0.833095121432", places=11)
    with mpmath.workdps(40):
        assert abs(c1.consensus * c2.consensus - 1) < 1e-20


def test_cq3_frozen_value():
    report = constant_Cq(3, 3)
    assert report.agreement()
    assert close(report, "0.800228748815", places=11)


def test_cq_which_validation():
    with pytest.raises(ValueError):
        constant_Cq(3, 4)


def test_little_cq_frozen_values():
    assert close(constant_cq(3), "0.2253166506", places=9)
    assert close(constant_cq_prime(3), "0.1031363073", places=9)


def test_little_cq_rejects_even_q():
    with pytest.raises(EvenCharacteristic):
        constant_cq(4)


def test_cam_frozen_value():
    field = field_for_order(3)
    report = constant_Cam(field, (1,), MonicPoly((0, 1)))
    assert report.agreement()
    assert close(report, "0.757420378965", places=11)


def test_cam_nine_element_field():
    field = field_for_order(9)
    report = constant_Cam(field, (1,), MonicPoly((0, 1)))
    assert report.agreement()
    assert close(report, "0.978880166818", places=11)


def test_cam_rejects_a_custom_field_modulus():
    # residue codes are read in the default field of each order
    field = build_field(3, 2, (2, 1, 1))  # Y^2 + Y + 2, not the default Y^2 + 1
    with pytest.raises(ValueError):
        constant_Cam(field, (1,), MonicPoly((0, 1)))


def test_cam_rejects_trivial_unit_group():
    field = field_for_order(2)
    with pytest.raises(HypothesisViolation):
        constant_Cam(field, (1,), MonicPoly((0, 1)))


def test_tail_bounds_are_positive_and_small():
    for report in (constant_Kq(3), constant_Cq(3, 1), constant_cq(3)):
        for method in report.methods:
            assert method.tail_bound > 0
            assert method.tail_bound < 1e-20


def test_precision_request_tightens_tails():
    lo = constant_Kq(3, digits=12)
    hi = constant_Kq(3, digits=24)
    assert lo.agreement() and hi.agreement()
    with mpmath.workdps(60):
        # the two requests agree within the looser declared tails
        gap = abs(lo.consensus - hi.consensus)
        assert gap <= 2 * max(m.tail_bound for m in lo.methods)


def test_constant_report_json_shape():
    report = constant_Kq(3, digits=15)
    data = report.to_json(digits=15)
    assert set(data) == {"name", "q", "methods", "consensus"}
    assert all(
        set(m) == {"tag", "value", "tail_bound"} for m in data["methods"]
    )
    assert isinstance(data["consensus"], str)


def test_consensus_is_min_tail_method():
    report = constant_Kq(5)
    best = min(report.methods, key=lambda m: m.tail_bound)
    assert report.consensus == best.value


def test_envelope_near_one_for_large_q():
    for q in (25, 81):
        assert abs(float(constant_Kq(q, digits=12).consensus) - 1) <= 3.0 / q
        assert abs(float(constant_Cq(q, 1, digits=12).consensus) - 1) <= 3.0 / q


# every constant as a function of (q, digits), with the precision of its reference
CONSTANTS = {
    "kq": (constant_Kq, 1000),
    "cq1": (lambda q, digits: constant_Cq(q, 1, digits), 1000),
    "cq2": (lambda q, digits: constant_Cq(q, 2, digits), 1000),
    "cq3": (lambda q, digits: constant_Cq(q, 3, digits), 1000),
    "cq": (constant_cq, 1000),
    "cqprime": (constant_cq_prime, 1000),
    # the progression table makes 1000 digits cost seconds; a 250-digit
    # reference still sits 150 orders of magnitude inside the tails checked
    "cam": (lambda q, digits: constant_Cam(
        field_for_order(q), (1,), MonicPoly((0, 1)), digits), 250),
}


@lru_cache(maxsize=None)
def reference(name, q):
    """The consensus of a high-precision run, with its declared tail."""
    func, digits = CONSTANTS[name]
    report = func(q, digits)
    assert report.agreement()
    return report.consensus, min(m.tail_bound for m in report.methods)


@pytest.mark.parametrize("digits", [30, 100])
@pytest.mark.parametrize("q", [3, 5, 101])
@pytest.mark.parametrize("name", sorted(CONSTANTS))
def test_every_method_lies_within_its_declared_tail(name, q, digits):
    ref, ref_tail = reference(name, q)
    report = CONSTANTS[name][0](q, digits)
    with mpmath.workdps(1020):
        for method in report.methods:
            assert method.tail_bound > 1000 * ref_tail
            assert abs(method.value - ref) <= method.tail_bound, method.tag


@pytest.mark.parametrize("q, weights", [
    (3, [(d, pi_chi2(3, d, CHI2_MINUS)) for d in range(1, 60)]),
    (5, [(d, pi_q(5, d)) for d in range(1, 60, 2)]),
    (101, [(d, pi_q(101, d)) for d in range(1, 12)]),
])
def test_euler_log_sum_within_its_ledger(q, weights):
    with mpmath.workdps(1000):
        S, ledger = _euler_log_sum(q, weights)
        scale = mpmath.mp.prec
    with mpmath.workdps(1100):
        exact = -mpmath.fsum(
            mpmath.mpf(w) / 2 * mpmath.log1p(-mpmath.mpf(q) ** (-2 * d))
            for d, w in weights)
        gap = exact - _to_mpf(S)
        # floors and truncation only ever drop mass: S <= exact < S + ledger
        assert 0 <= gap <= _to_mpf(ledger)
    assert S.denominator & (S.denominator - 1) == 0
    assert ledger < Fraction(1, 2**scale)


def _euler_weights(q):
    """Euler-product weights: prime counts by degree, zeros, and weights
    at and past y = q^(2d), one of them past 2^P at 100 bits."""
    counts = [(d, pi_q(q, d)) for d in range(1, 13)]
    zeros = [(d, 0) for d in (1, 2, 12)]
    large = [(1, q**2), (2, 3 * q**4 + 1), (3, 7 ** 60)]
    return counts + zeros + large


@pytest.mark.parametrize("q", [2, 3, 5, 101])
@pytest.mark.parametrize("prec", [100, 1664, 14000])
def test_euler_log_sum_equals_the_direct_floors(q, prec):
    # running quotients R_(k+1) = R_k // y, term R_k // k, against the
    # direct (w << P) // (k y^k): the same S and the same ledger
    weights = _euler_weights(q)
    with mpmath.workprec(prec):
        assert _euler_log_sum(q, weights) == direct_euler_log_sum(q, weights)


ARTANH_ARGS = [3, 5, 7, 17, 19, 3**8, 101, 2 * 101**4 - 1]


@pytest.mark.parametrize("P", [100, 1778, 14000])
def test_artanh_sum_equals_the_direct_floors(P):
    # running quotients R_(j+2) = R_j // y^2, term R_j // j, against the
    # direct 2^P // (j y^j): the same S and the same ledger
    with mpmath.workprec(P - GUARD_BITS):
        for y in ARTANH_ARGS:
            assert _artanh_sum(y) == direct_artanh_sum(y), y


@pytest.mark.parametrize("P", [100, 1778, 14000])
def test_artanh_sum_within_its_ledger(P):
    with mpmath.workprec(P - GUARD_BITS):
        sums = [_artanh_sum(y) for y in ARTANH_ARGS]
    with mpmath.workprec(P + 256):
        for y, (S, ulps) in zip(ARTANH_ARGS, sums):
            exact = mpmath.ldexp(mpmath.atanh(mpmath.mpf(1) / y), P)
            # floors and truncation only ever drop mass: S <= exact < S + ulps
            assert S <= exact < S + ulps, y


def _nested_reference(q, digits, which):
    """K_q (which = "kq") or C_{q,1} (which = "cq1") by its nested product
    with mpmath log1p at digits + 40, two factors past the depth that
    precision asks for."""
    with mpmath.workdps(digits + 40):
        log = mpmath.mpf(0)
        for k in range(constants._nested_depth(q, digits + 40) + 3):
            if which == "kq":
                x = mpmath.mpf(q) ** -(2**k)
                log += mpmath.log1p(x) / 2 ** (k + 1) - mpmath.log1p(-q * x * x) / 2 ** (k + 2)
            else:
                z = mpmath.mpf(q) ** (1 - 2 ** (k + 1))
                log += (mpmath.log1p(z) - mpmath.log1p(-z)) / 2 ** (k + 2)
        return mpmath.exp(log)


@pytest.mark.parametrize("digits", [30, 100, 500])
@pytest.mark.parametrize("q", [3, 5, 9, 25, 101])
@pytest.mark.parametrize("which", ["kq", "cq1"])
def test_artanh_methods_lie_within_their_tails_of_a_log1p_reference(which, q, digits):
    report = constant_Kq(q, digits) if which == "kq" else constant_Cq(q, 1, digits)
    ref = _nested_reference(q, digits, which)
    with mpmath.workdps(digits + 40):
        for method in report.methods:
            if method.tag in ("nested-product", "euler-product"):
                assert abs(method.value - ref) <= method.tail_bound, method.tag


def test_constants_take_no_mpmath_logarithm():
    # every logarithm of the constants is an exact artanh or Euler sum
    tree = ast.parse(inspect.getsource(constants))
    names = {node.attr for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "mpmath"}
    names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              and node.module == "mpmath" for alias in node.names}
    assert not names & {"log", "log1p", "ln", "log10", "log2", "atanh", "mpf_log"}


@pytest.mark.parametrize("family, i, x", [
    (families.FAMILY_LANDAU, 0, None),
    (families.FAMILY_S1, 1, None),
    (families.FAMILY_S1, 0, Fraction(1, 81)),
    (families.FAMILY_LANDAU, 2, None),
    (families.FAMILY_S1, 3, None),
])
def test_atilde_sum_fixed_point_ledger(family, i, x):
    est = estimator_for(FamilySpec(family, q=3))
    N = 60
    with mpmath.workdps(40):
        S, tail = _atilde_sum(est, N, i, x=x)
        P = mpmath.mp.prec + GUARD_BITS
    xv = est.beta if x is None else x
    A, D = est.numerators(N)
    exact = sum(Fraction(A[n], D) * xv**n
                * (Fraction(1, n) if i == 0 else math.comb(n - 1, i - 1))
                for n in range(1, N + 1))
    assert S.denominator & (S.denominator - 1) == 0
    assert 0 <= exact - S < Fraction(N, 2**P)
    assert tail >= N * 2.0**-P


def cold_caches(monkeypatch):
    """Empty the estimator and report caches for one test, so it builds afresh."""
    monkeypatch.setattr(asymptotics, "_ESTIMATOR_CACHE", {})
    monkeypatch.setattr(constants, "_REPORT_CACHE", {})


def test_cq3_builds_the_s1_coefficients_once(monkeypatch):
    cold_caches(monkeypatch)
    calls = []
    psi_table = families.psi_table

    def counted(spec, N, cap=None):
        calls.append((spec.family, N))
        return psi_table(spec, N, cap=cap)

    monkeypatch.setattr(families, "psi_table", counted)
    constant_Cq(3, 3, 100)
    # one s3 table for the series, one s1 table for both composed sums
    assert sorted(family for family, _ in calls) == [families.FAMILY_S1,
                                                     families.FAMILY_S3]


def count_class_passes(monkeypatch):
    """Record the N of each psi_table call and of each class-count pass."""
    tables, passes = [], []
    psi_table, class_counts = families.psi_table, families._class_counts

    def counted_table(spec, N, cap=None):
        tables.append(N)
        return psi_table(spec, N, cap=cap)

    def counted_class_counts(field, N, *args):
        passes.append(N)
        return class_counts(field, N, *args)

    monkeypatch.setattr(families, "psi_table", counted_table)
    monkeypatch.setattr(families, "_class_counts", counted_class_counts)
    return tables, passes


def test_cam_computes_each_atilde_once(monkeypatch):
    cold_caches(monkeypatch)
    tables, passes = count_class_passes(monkeypatch)
    field = field_for_order(3)
    report = constant_Cam(field, 1, MonicPoly((1, 0, 1)), 30)
    assert [m.tag for m in report.methods] == ["series", "series-doubled"]
    # one psi table, from one class-count pass over its degrees 1..N
    assert len(tables) == 1
    assert passes == tables


def test_estimate_then_cam_take_one_class_pass_per_table(monkeypatch, capsys):
    # one CLI session: the estimate grows the family's table, the constant
    # grows it again, and each psi table reads its class counts in one call
    cold_caches(monkeypatch)
    monkeypatch.setattr(primecounts, "_ARITH_CACHE", {})
    tables, passes = count_class_passes(monkeypatch)
    for argv in (["estimate", "arith", "--n", "150"], ["constants", "cam", "--digits", "60"]):
        assert main(argv + ["--q", "3", "--m", "T^2+1", "--a", "1"]) == 0, capsys.readouterr().err
    assert len(tables) >= 2 and passes == tables


def test_cq2_reads_the_kept_cq1_report(monkeypatch):
    cold_caches(monkeypatch)
    cold = json.dumps(constant_Cq(3, 2, 100).to_json(digits=100))
    cold_caches(monkeypatch)
    calls = []
    psi_table = families.psi_table

    def counted(spec, N, cap=None):
        calls.append(spec.family)
        return psi_table(spec, N, cap=cap)

    monkeypatch.setattr(families, "psi_table", counted)
    c1 = constant_Cq(3, 1, digits=100)
    assert constant_Cq(3, 1, 100) is c1  # one entry, positional or by keyword
    calls.clear()
    warm = constant_Cq(3, 2, 100)
    assert calls == [families.FAMILY_S2]  # no s1 table: C_{q,1} is kept
    assert json.dumps(warm.to_json(digits=100)) == cold
    assert constant_Cq(3, 2, digits=100) is warm
    assert constant_Cq(3, 2, 30) is not warm


def test_cam_report_is_kept_per_cap(monkeypatch):
    # the progression family may enumerate, so FQT_CAP is part of the key
    cold_caches(monkeypatch)
    monkeypatch.delenv("FQT_CAP", raising=False)
    field, m = field_for_order(3), MonicPoly((1, 0, 1))
    report = constant_Cam(field, 1, m, 15)
    assert constant_Cam(field, (1,), m, digits=15) is report
    monkeypatch.setenv("FQT_CAP", "50")
    capped = constant_Cam(field, 1, m, 15)
    assert capped is not report and capped.to_json(15) == report.to_json(15)
