"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line on the real stdout (pytest
capture is suspended for the line, so it is visible in any run mode),
then asserts so pytest records the same verdict.
"""

import random
import time
from fractions import Fraction

import mpmath
import numpy as np

from fqtcount import ffield
from fqtcount.asymptotics import (
    binom_frac,
    psi_residual_check,
    estimate_coefficient,
    estimator_for,
    exact_ratio,
    finite_difference_identity,
)
from fqtcount.constants import (
    constant_Cq,
    constant_Kq,
    constant_cq,
    constant_cq_prime,
)
from fqtcount.families import (
    FamilySpec,
    canonical_family,
    count_landau,
    count_landau_poly_in_q,
    count_table,
    oracle_count,
)
from fqtcount.ffield import field_for_order
from fqtcount.primecounts import LPolynomial, pi_arith, pi_q, progression_gap_squared
from fqtcount.series import (
    TruncatedSeries,
    product_form,
    series_exp,
    series_log,
)
from fqtcount.verify import run_all
from closed_forms import e_n, f_n
from power2 import verify_power2_product

ODD_PRIME_POWERS_TO_101 = [
    3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37, 41, 43, 47, 49,
    53, 59, 61, 67, 71, 73, 79, 81, 83, 89, 97, 101,
]
EVEN_PRIME_POWERS_TO_101 = [2, 4, 8, 16, 32, 64]


def report(capsys, number, label, ok, started):
    elapsed = time.monotonic() - started
    verdict = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {number} {verdict}: {label} [{elapsed:.1f}s]")
    return ok


def random_progressions(rng, field, count=5):
    """Deterministic sample of (a, m) pairs with a coprime to m."""
    q = field.q
    out = []
    while len(out) < count:
        deg = rng.choice([1, 2])
        m = tuple(rng.randrange(q) for _ in range(deg)) + (1,)
        a_deg = rng.randrange(deg)
        a = tuple(rng.randrange(q) for _ in range(a_deg)) + (
            rng.randrange(1, q),
        )
        if ffield.poly_gcd(field, a, m) != (1,):
            continue
        if (m, a) == ((0, 1), (1,)) or (m, a) in [(p[0], p[1]) for p in out]:
            continue
        out.append((m, a))
    return out


def test_criterion_1_oracle_equivalence(capsys):
    started = time.monotonic()
    budget = 10**6
    rng = random.Random(20260822)
    bad = []
    for q in (2, 3, 5, 7, 9):
        field = field_for_order(q)
        max_deg = 1
        while q ** (max_deg + 1) <= budget:
            max_deg += 1
        specs = []
        if q % 2:
            specs.append(FamilySpec(canonical_family("landau"), q=q))
        for name in ("s1", "s2", "s3"):
            specs.append(FamilySpec(canonical_family(name), q=q))
        specs.append(
            FamilySpec(canonical_family("arith"), q=q, m=(0, 1), a=(1,))
        )
        for m, a in random_progressions(rng, field):
            specs.append(FamilySpec(canonical_family("arith"), q=q, m=m, a=a))
        for spec in specs:
            step = spec.degree_step
            N = max_deg // step
            table = count_table(spec, N)
            for n in range(N + 1):
                truth = oracle_count(field, spec, step * n)
                if truth != table.value(n):
                    bad.append((spec.family, q, n, table.value(n), truth))
    ok = report(
        capsys,
        1,
        "generating-function counts match enumeration "
        "(q in {2,3,5,7,9}, q^degree <= 1e6)",
        not bad,
        started,
    )
    assert ok, bad[:5]


def test_criterion_2_closed_form_spot_values(capsys):
    started = time.monotonic()
    ok = True
    for q in ODD_PRIME_POWERS_TO_101:
        ok &= count_landau(q, 1).value(1) * 2 == q + 1
    for q in (3, 5, 7, 9, 11, 13):
        b2 = count_landau(q, 2).value(2)
        ok &= 8 * b2 == 3 * q * q + 4 * q + 1
        field = field_for_order(q)
        spec = FamilySpec(canonical_family("landau"), q=q)
        ok &= b2 == oracle_count(field, spec, 2)
    for q in (3, 5, 7, 9, 11, 13, 25):
        table = count_landau(q, 8)
        for n in range(9):
            ok &= count_landau_poly_in_q(n)(q) == table.value(n)
    ok = report(
        capsys,
        2,
        "degree-1 and degree-2 closed forms and the polynomial-in-q "
        "interpolation hold",
        ok,
        started,
    )
    assert ok


def test_criterion_3_exact_identities(capsys):
    started = time.monotonic()
    ok = True
    # binomial convolution identity on 500 seeded draws
    rng = random.Random(31)
    checked = 0
    while checked < 500:
        c1 = Fraction(rng.randint(1, 20), rng.choice([2, 3, 4, 5, 6, 7]))
        if c1.denominator == 1:
            continue
        n = rng.randint(1, 30)
        i = rng.randint(0, n)
        lhs, rhs = finite_difference_identity(c1, n, i)
        ok &= lhs == rhs
        checked += 1
    # functional equation F(x)^2 = (1+x) * (sum q^n x^n) * F(x^2), order 50
    for q in (3, 5, 9):
        spec = FamilySpec(canonical_family("landau"), q=q)
        F = product_form(spec.generator_counts(50), 50)
        lhs = F * F
        geom = TruncatedSeries.from_coeffs([q**n for n in range(51)])
        one_plus_x = TruncatedSeries.from_coeffs([1, 1] + [0] * 49)
        rhs = one_plus_x * geom * F.compose_xpow(2)
        ok &= lhs.coeffs == rhs.coeffs
    # power-of-two product identity for both tail series, order 40
    N = 40
    for q in (3, 5):
        log_a = TruncatedSeries.from_coeffs(
            [Fraction(0)] + [e_n(q, n) / n for n in range(1, N + 1)]
        )
        minus_half = TruncatedSeries.from_coeffs(
            [1, -1] + [0] * (N - 1)
        )
        one_minus_x2 = TruncatedSeries.from_coeffs(
            [1, 0, -1] + [0] * (N - 2)
        )
        one_minus_qx2 = TruncatedSeries.from_coeffs(
            [1, 0, -q] + [0] * (N - 2)
        )
        G = (
            series_log(minus_half).scale(Fraction(-1, 2))
            + series_log(one_minus_x2).scale(Fraction(1, 2))
            + series_log(one_minus_qx2).scale(Fraction(-1, 4))
        )
        ok &= verify_power2_product(series_exp(log_a), series_exp(G), N)
        log_c = TruncatedSeries.from_coeffs(
            [Fraction(0)] + [f_n(q, n) / n for n in range(1, N + 1)]
        )
        one_plus_qx = TruncatedSeries.from_coeffs([1, q] + [0] * (N - 1))
        one_minus_qx = TruncatedSeries.from_coeffs([1, -q] + [0] * (N - 1))
        H = (
            series_log(one_plus_qx) - series_log(one_minus_qx)
        ).scale(Fraction(1, 4))
        ok &= verify_power2_product(series_exp(log_c), series_exp(H), N)
    ok = report(
        capsys,
        3,
        "binomial identity (500 draws), functional equation to order 50, "
        "power-of-two products to order 40",
        ok,
        started,
    )
    assert ok


def test_criterion_4_rigorous_bounds(capsys):
    started = time.monotonic()
    ok = True
    # (a) prime census: sum d*pi_q(d) over d|n equals q^n
    for q in (2, 3, 4, 5, 7, 8, 9):
        for n in range(1, 21):
            total = sum(
                d * pi_q(q, d) for d in range(1, n + 1) if n % d == 0
            )
            ok &= total == q**n
    # (b) progression prime counts stay inside the square-root bound
    for q in (2, 3, 5):
        field = field_for_order(q)
        moduli = ffield.enumerate_monic(field, 1)
        if q <= 3:
            moduli = moduli + ffield.enumerate_monic(field, 2)
        else:
            moduli = moduli + ffield.enumerate_monic(field, 2)[:8]
        for m in moduli:
            for a_code in range(q ** m.degree):
                coeffs, c = [], a_code
                while c:
                    c, digit = divmod(c, q)
                    coeffs.append(digit)
                a = tuple(coeffs) if coeffs else (0,)
                if a == (0,) or ffield.poly_gcd(field, a, m.coeffs) != (1,):
                    continue
                for n in range(1, 7):
                    count = pi_arith(field, n, a, m)
                    gap_sq, bound_sq = progression_gap_squared(field, n, a, m, count)
                    ok &= gap_sq <= bound_sq
    # (c) displacement window 1/2 <= e_n <= q^(n//2)
    for q in (3, 5, 9, 27):
        for n in range(1, 51):
            value = e_n(q, n)
            ok &= Fraction(1, 2) <= value <= Fraction(q) ** (n // 2)
    # (d) divisor-family residual ratios under 16 and 42
    lpolys = (
        LPolynomial(3, (1,)),
        LPolynomial(5, (1,)),
        LPolynomial(3, (1, 0, 3)),
        LPolynomial(5, (1, -2, 5)),
    )
    for L in lpolys:
        for r in (2, 3):
            for ell in (None, 1, 2):
                for n in range(1, 11):
                    ok &= psi_residual_check(L, r, ell, n).ok
    # (e) place-census displacement |N_n - q^n| <= 3*max(g,1)*q^(n/2)
    for L in lpolys:
        g_t = max(L.genus, 1)
        for n in range(1, 13):
            census = sum(
                d * L.pi(d) for d in range(1, n + 1) if n % d == 0
            )
            ok &= (census - L.q**n) ** 2 <= 9 * g_t * g_t * L.q**n
    ok = report(
        capsys,
        4,
        "census identity, progression bound, displacement window, "
        "residual ratios 16/42, place-census envelope",
        ok,
        started,
    )
    assert ok


def _enclosure_cases():
    yield FamilySpec(canonical_family("landau"), q=3), 200
    yield FamilySpec(canonical_family("landau"), q=5), 200
    yield FamilySpec(canonical_family("landau"), q=9), 200
    yield FamilySpec(canonical_family("s1"), q=3), 200
    yield FamilySpec(canonical_family("s1"), q=5), 200
    yield FamilySpec(canonical_family("s1"), q=9), 200
    yield FamilySpec(canonical_family("arith"), q=9, m=(0, 1), a=(1,)), 200
    # the q=3 progression threshold is 359, past the 200 used for the
    # other families, so its range extends to 420 to exercise the
    # in-range regime at all
    yield FamilySpec(canonical_family("arith"), q=3, m=(0, 1), a=(1,)), 420
    yield FamilySpec(canonical_family("s2"), q=3), 200
    yield FamilySpec(canonical_family("s3"), q=3), 200
    yield FamilySpec(canonical_family("s3"), q=5), 200
    # a genus-1 curve over F_5; thresholds 176 (unbounded) and 502 (ell=2)
    L = LPolynomial(5, (1, 2, 5))
    yield FamilySpec(canonical_family("divisors"), l_poly=L, r=2), 240
    yield FamilySpec(canonical_family("divisors-r-ell-K"), l_poly=L, r=2, ell=2), 560


def test_criterion_5_enclosure_soundness(capsys):
    started = time.monotonic()
    violations = []
    for spec, top in _enclosure_cases():
        est = estimator_for(spec)
        table = count_table(spec, top)
        first = estimate_coefficient(est, top)
        lo = first.threshold
        if lo > top:
            violations.append((est.label, "empty range"))
            continue
        for n in range(lo, top + 1):
            result = estimate_coefficient(est, n)
            ratio = exact_ratio(table.value(n), est, n)
            if not result.in_range or not result.certified:
                violations.append((est.label, n, "flags"))
            elif not result.contains_ratio(ratio, simplified=True):
                violations.append((est.label, n, "outside"))
    ok = report(
        capsys,
        5,
        "exact ratio inside the simplified enclosure for every in-range "
        "index of every family",
        not violations,
        started,
    )
    assert ok, violations[:5]


def test_criterion_6_constant_consensus(capsys):
    started = time.monotonic()
    ok = True
    for build in (lambda: constant_Kq(3), lambda: constant_Cq(3, 1)):
        rep = build()
        ok &= len(rep.methods) == 3 and rep.agreement()
        with mpmath.workdps(40):
            spread = max(
                abs(a.value - b.value)
                for a in rep.methods
                for b in rep.methods
            )
            ok &= spread < 1e-12
    for q in ODD_PRIME_POWERS_TO_101:
        ok &= abs(float(constant_Kq(q, digits=12).consensus) - 1) <= 3.0 / q
    for q in sorted(ODD_PRIME_POWERS_TO_101 + EVEN_PRIME_POWERS_TO_101):
        for which in (1, 2, 3):
            value = float(constant_Cq(q, which, digits=12).consensus)
            ok &= abs(value - 1) <= 3.0 / q
    diffs_c, diffs_cp = [], []
    for q in ODD_PRIME_POWERS_TO_101:
        diffs_c.append(float(constant_cq(q, digits=12).consensus) - 1 / (2 * q))
        diffs_cp.append(
            float(constant_cq_prime(q, digits=12).consensus) - 1 / (4 * q)
        )
    logq = np.log(ODD_PRIME_POWERS_TO_101)
    slope_c = np.polyfit(logq, np.log(diffs_c), 1)[0]
    slope_cp = np.polyfit(logq, np.log(diffs_cp), 1)[0]
    ok &= abs(slope_c + 2) <= 0.3
    ok &= abs(slope_cp + 3) <= 0.3
    ok = report(
        capsys,
        6,
        "tri-method agreement at 1e-12, near-one envelopes to q=101, "
        f"correction slopes {slope_c:.2f}/{slope_cp:.2f}",
        ok,
        started,
    )
    assert ok


def test_criterion_7_main_term_convergence(capsys):
    started = time.monotonic()
    table = count_landau(3, 200)
    k3 = constant_Kq(3, digits=40).consensus
    worst = 0.0
    with mpmath.workdps(120):
        for n in range(1, 201):
            b_n = binom_frac(Fraction(n) - Fraction(1, 2), n)
            main = (
                k3
                * mpmath.mpf(b_n.numerator)
                / mpmath.mpf(b_n.denominator)
                * mpmath.mpf(3) ** n
            )
            dev = abs(mpmath.mpf(table.value(n)) - main)
            quantity = float(
                mpmath.mpf(n) ** 1.5 * dev / mpmath.mpf(3) ** (n - 1)
            )
            worst = max(worst, quantity)
    ok = report(
        capsys,
        7,
        f"scaled main-term deviation stays bounded (sup {worst:.2f} <= 100, "
        "n <= 200)",
        worst <= 100.0,
        started,
    )
    assert ok


def test_criterion_8_deterministic_reports(capsys):
    started = time.monotonic()
    first = "".join(rep.render() for rep in run_all(seed=0))
    second = "".join(rep.render() for rep in run_all(seed=0))
    ok = first == second and all(rep.ok for rep in run_all(seed=0))
    ok = report(
        capsys,
        8,
        "verification suites are byte-identical across repeated runs",
        ok,
        started,
    )
    assert ok
