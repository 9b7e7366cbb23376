"""Self-checking suites: oracle, identities, bounds, constants.

Each suite runs a fixed list of checks, some on seeded random samples,
and renders a deterministic text report: same seed, same bytes.  The
oracle suite compares generating-function tables against independent
enumeration (the bulk factorization sieve), and the sieve's
factorizations and member masks against ffield.factor and
membership_oracle on seeded samples; identities exercises exact algebraic
relations; bounds the certified envelopes and estimator enclosures;
constants the multi-method consensus values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import asymptotics as asym
from . import constants as cst
from . import families, series
from .families import FamilySpec
from .ffield import (
    MonicPoly,
    chi2,
    code_of,
    enumerate_monic,
    factor,
    field_for_order,
    poly_mul,
    poly_to_string,
)
from .primecounts import LPolynomial, pi_arith, progression_gap_squared
from .universe import get_universe, poly_of_code

SUITES = ("oracle", "identities", "bounds", "constants")

# polynomials per drawn degree whose factorizations the oracle suite compares
_SAMPLE = 64

_TEST_LPOLYS = (
    LPolynomial(3, (1,)),
    LPolynomial(5, (1, -2, 5)),
    LPolynomial(4, (1, 0, 4)),
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class SuiteReport:
    suite: str
    seed: int
    results: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(r.passed for r in self.results)

    def render(self) -> str:
        lines = [f"suite {self.suite} seed {self.seed}"]
        for r in self.results:
            mark = "ok  " if r.passed else "FAIL"
            lines.append(f"{mark} {r.name}: {r.detail}")
        n_pass = sum(r.passed for r in self.results)
        lines.append(f"passed {n_pass}/{len(self.results)}")
        return "\n".join(lines) + "\n"


def _result(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# -- oracle suite ----------------------------------------------------


def _oracle_checks(rng: random.Random) -> list[CheckResult]:
    out = []
    # sieve versus generating function for the F_q[T] families
    plans = [
        ("landau", 3, 8), ("landau", 5, 6), ("landau", 9, 5),
        ("s1", 3, 4), ("s2", 3, 4), ("s3", 3, 4), ("s1", 5, 3),
    ]
    for name, q, max_deg in plans:
        fam = FamilySpec(name, q=q)
        step = fam.degree_step
        table = families.count_table(fam, max_deg)
        good = True
        for n in range(1, max_deg + 1):
            sieved = families.oracle_count(fam.field(), fam, step * n)
            if sieved != table.value(n):
                good = False
                break
        out.append(_result(
            f"sieve-vs-series {name} q={q}", good,
            f"indices 1..{max_deg} agree" if good else f"mismatch at {n}"))
    # the sieve at one random degree per family, and a representation
    # search degree; all four are drawn before any sample
    drawn = [(name, FamilySpec(name, q=q), rng.randint(2, 4))
             for name, q in (("landau", 3), ("s1", 3), ("s3", 5))]
    deg = rng.randint(3, 5)
    for name, fam, n in drawn:
        field, degree = fam.field(), fam.degree_step * n
        a = families.oracle_count(field, fam, degree)
        b = families.count_table(fam, n).value(n)
        agree, sample = _sample_agrees(rng, fam, degree)
        out.append(_result(
            f"membership-vs-series {name} q={fam.q}", a == b and agree == sample,
            f"degree {degree}: {a} vs {b}; "
            f"{agree}/{sample} sampled factorizations and memberships agree"))
    # representation search for the quadratic-form family
    field = field_for_order(3)
    fam = FamilySpec(families.FAMILY_LANDAU, q=3)
    mask = get_universe(field, deg).masks(families.membership_rule(field, fam), deg)[deg]
    good = mask.tolist() == [
        families.rep_search_membership(field, poly_of_code(field, 3**deg + i))
        for i in range(3**deg)]
    out.append(_result("representation-search q=3", good,
                       f"all degree-{deg} polynomials agree"))
    # progression family against the sieve
    for q, m, a in ((3, (0, 1), (1,)), (3, (1, 1), (2,)), (5, (1, 0, 1), (0, 1))):
        fam = FamilySpec(families.FAMILY_ARITH, q=q, m=m, a=a)
        table = families.count_table(fam, 5)
        good = all(
            families.oracle_count(fam.field(), fam, n) == table.value(n)
            for n in range(1, 6))
        out.append(_result(f"sieve-vs-series arith q={q} m={poly_to_string(m)}", good,
                           "degrees 1..5 agree"))
    return out


def _sample_agrees(rng: random.Random, fam: FamilySpec, degree: int) -> tuple[int, int]:
    """On a seeded sample of at most _SAMPLE monic polynomials of the
    degree: how many ffield.factor and membership_oracle treat as the
    sieve does (Universe.factor_chain and the family's mask), and the
    sample size.  Each polynomial is factored once, and membership_oracle
    reads that factorization.  factor shares no code with the sieve's
    digit products."""
    field = fam.field()
    q, uni = field.q, get_universe(field, degree)
    mask = uni.masks(families.membership_rule(field, fam), degree)[degree]
    picks = rng.sample(range(q**degree), min(_SAMPLE, q**degree))
    agree = 0
    for idx in picks:
        f = poly_of_code(field, q**degree + idx)
        fact = factor(field, f)
        chain = sorted((code_of(field, P.coeffs), e) for P, e in fact.factors)
        agree += (chain == sorted(uni.factor_chain(degree, idx))
                  and families.membership_oracle(field, fact, fam) == bool(mask[idx]))
    return agree, len(picks)


# -- identities suite ------------------------------------------------


def _identity_checks(rng: random.Random) -> list[CheckResult]:
    out = []
    # Moebius roundtrip psi <-> g on random generator counts
    N = 12
    g = {n: rng.randint(0, 50) for n in range(1, N + 1)}
    back = series.g_from_psi(series.psi_from_g(g, N), N)
    ok = all(back.count(n) == g[n] for n in range(1, N + 1))
    out.append(_result("moebius-roundtrip", ok, f"N={N} random counts"))
    # the squared-series functional equation of the quadratic-form family
    for q in (3, 5):
        fam = FamilySpec(families.FAMILY_LANDAU, q=q)
        Nq = 10
        F = series.product_form(fam.generator_counts(Nq), Nq)
        lhs = F * F
        rhs_num = series.TruncatedSeries.from_coeffs((1, 1), Nq)
        geom = series.TruncatedSeries.from_coeffs(
            tuple(q**i for i in range(Nq + 1)))
        F2 = F.compose_xpow(2)
        ok = lhs == series.series_mul(series.series_mul(rhs_num, geom), F2)
        out.append(_result(f"functional-equation q={q}", ok, f"orders 0..{Nq}"))
    # chi2 multiplicativity on random monic pairs
    field = field_for_order(5)
    good = True
    for _ in range(40):
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        fa = rng.choice(list(enumerate_monic(field, da)))
        fb = rng.choice(list(enumerate_monic(field, db)))
        prod = MonicPoly(poly_mul(field, fa.coeffs, fb.coeffs))
        if chi2(field, prod) != chi2(field, fa) * chi2(field, fb):
            good = False
            break
    out.append(_result("chi2-multiplicative q=5", good, "40 random pairs"))
    # closed psi forms versus direct divisor sums
    specs = [
        FamilySpec(families.FAMILY_LANDAU, q=3),
        FamilySpec(families.FAMILY_S1, q=3),
        FamilySpec(families.FAMILY_S2, q=5),
        FamilySpec(families.FAMILY_S3, q=3),
        FamilySpec(families.FAMILY_ARITH, q=3, m=(0, 1), a=(1,)),
        FamilySpec(families.FAMILY_DIVISORS, l_poly=_TEST_LPOLYS[1], r=2),
        FamilySpec(families.FAMILY_DIVISORS_ELL, l_poly=_TEST_LPOLYS[1], r=2,
                   ell=2),
    ]
    good = True
    for fam in specs:
        g = fam.generator_counts(8)
        good &= all(families.psi_value(fam, n) == sum(d * g[d] for d in range(1, n + 1)
                                                      if n % d == 0) for n in range(1, 9))
    out.append(_result("psi-closed-forms", good, "7 family shapes, n <= 8"))
    # the finite-difference binomial identity, exact
    good = True
    for _ in range(10):
        c1 = Fraction(rng.randint(1, 7), rng.choice([8, 9, 11]))
        n = rng.randint(1, 10)
        i = rng.randint(0, n)
        lhs, rhs = asym.finite_difference_identity(c1, n, i)
        if lhs != rhs:
            good = False
            break
    out.append(_result("binomial-identity", good, "10 random (c1, n, i)"))
    # point counts of test curves by two routes
    L = _TEST_LPOLYS[1]
    ok = L.point_count(1) == 4 and L.point_count(2) == 32 and \
        _TEST_LPOLYS[0].point_count(3) == 3**3 + 1
    out.append(_result("curve-point-counts", ok, "genus 0 and 1 values"))
    # reciprocal pair of half-degree constants
    c1 = cst.constant_Cq(3, 1, 20).consensus
    c2 = cst.constant_Cq(3, 2, 20).consensus
    ok = abs(c1 * c2 - 1) < 1e-18
    out.append(_result("reciprocal-constants", ok, "C1*C2 = 1 at q=3"))
    return out


# -- bounds suite ----------------------------------------------------


def _bounds_checks(rng: random.Random) -> list[CheckResult]:
    out = []
    # displacement envelopes for the quadratic-form family
    good = True
    for q in (3, 5, 9):
        psi = families.psi_table(FamilySpec(families.FAMILY_LANDAU, q=q), 39)
        good &= all(Fraction(1, 2) <= psi[n] - Fraction(q**n, 2) <= q ** (n // 2)
                    for n in range(1, 40))
    out.append(_result("displacement-envelope", good, "q in {3,5,9}, n < 40"))
    # progression prime count displacement (squared comparison)
    field = field_for_order(3)
    m = MonicPoly((1, 1))
    good = True
    for n in range(1, 12):
        count = pi_arith(field, n, (2,), m)
        gap_sq, bound_sq = progression_gap_squared(field, n, (2,), m, count)
        if gap_sq > bound_sq:
            good = False
    out.append(_result("progression-displacement", good, "q=3 m=T+1 n<12"))
    # curve place counts: weighted divisor sum within the square-root
    # envelope (constant 3), and the crude per-degree bound (constant 4)
    good = True
    for L in _TEST_LPOLYS:
        gt = max(L.genus, 1)
        for n in range(1, 12):
            gap = sum(d * L.pi(d) for d in range(1, n + 1) if n % d == 0) - L.q**n
            if gap * gap > 9 * gt * gt * L.q**n:
                good = False
            if n * L.pi(n) > 4 * gt * L.q**n:
                good = False
    out.append(_result("curve-prime-envelope", good,
                       "3 test curves, n < 12, constant 3"))
    # divisor-family residual constants
    good = True
    for L, r in ((_TEST_LPOLYS[0], 2), (_TEST_LPOLYS[1], 2), (_TEST_LPOLYS[1], 3)):
        for n in range(1, 9):
            if not asym.psi_residual_check(L, r, None, n).ok:
                good = False
            if not asym.psi_residual_check(L, r, 2, n).ok:
                good = False
    out.append(_result("divisor-residuals", good, "constants 16 and 42"))
    # RH location of L-polynomial roots (raises on violation)
    good = True
    try:
        for L in _TEST_LPOLYS:
            L.check_rh()
    except Exception:
        good = False
    out.append(_result("root-location", good, "3 test curves"))
    # estimator enclosures against exact counts
    good = True
    details = []
    for fam, n in (
        (FamilySpec(families.FAMILY_LANDAU, q=3), 60),
        (FamilySpec(families.FAMILY_S1, q=3), 55),
        (FamilySpec(families.FAMILY_ARITH, q=3, m=(0, 1), a=(1,)), 45),
    ):
        est = asym.estimator_for(fam)
        table = families.count_table(fam, n)
        res = asym.estimate_coefficient(est, n)
        ratio = asym.exact_ratio(table.value(n), est, n)
        if not res.contains_ratio(ratio):
            good = False
        details.append(f"{est.label} n={n}")
    out.append(_result("estimate-enclosure", good, "; ".join(details)))
    # the tail-sum bound of the finite-difference expansion, exact left side
    good = True
    for _ in range(8):
        n = rng.randint(3, 12)
        i = rng.randint(1, n)
        lhs, rhs = asym.finite_difference_tail_bound(Fraction(1, 2), 0, i, n)
        if float(lhs) > rhs * (1 + 1e-12):
            good = False
    out.append(_result("expansion-tail-bound", good, "8 random (i, n)"))
    # derivative envelope of the analytic factor
    est = asym.estimator_for(FamilySpec(families.FAMILY_LANDAU, q=3))
    good = True
    for i in range(4):
        val, env = asym.derivative_envelope(est, i, Fraction(1, 3))
        if val > env * (1 + 1e-9) + 1e-6:
            good = False
    out.append(_result("derivative-envelope", good, "orders 0..3 at x=beta"))
    # simplified-bound thresholds at frozen parameter points
    frozen = (
        ((Fraction(1, 2), 1, 3 ** -0.5), 149),
        ((Fraction(1, 2), 1, 9 ** -0.5), 62),
        ((Fraction(1, 2), Fraction(1, 2), 1 / 3), 49),
        ((Fraction(1, 8), 4, 1 / 3), 149),
    )
    good = all(asym.simplified_bound_threshold(*args) == want for args, want in frozen)
    out.append(_result("threshold-values", good, "4 frozen parameter points"))
    return out


# -- constants suite -------------------------------------------------


def _constants_checks(rng: random.Random) -> list[CheckResult]:
    out = []
    k3 = cst.constant_Kq(3, 20)
    out.append(_result("quadratic-constant-consensus", k3.agreement(),
                       f"3 methods, consensus {float(k3.consensus):.12f}"))
    c31 = cst.constant_Cq(3, 1, 20)
    out.append(_result("half-degree-constant-consensus", c31.agreement(),
                       f"3 methods, consensus {float(c31.consensus):.12f}"))
    for which in (2, 3):
        rep = cst.constant_Cq(3, which, 20)
        out.append(_result(f"half-degree-variant-{which}", rep.agreement(),
                           f"consensus {float(rep.consensus):.12f}"))
    for maker, name in ((cst.constant_cq, "correction"),
                        (cst.constant_cq_prime, "correction-prime")):
        rep = maker(3, 20)
        out.append(_result(f"{name}-consensus", rep.agreement(),
                           f"consensus {float(rep.consensus):.12f}"))
    cam = cst.constant_Cam(field_for_order(3), (1,), MonicPoly((0, 1)), 15)
    out.append(_result("progression-constant-stability", cam.agreement(),
                       f"consensus {float(cam.consensus):.12f}"))
    # near-1 envelope across q
    good = True
    for q in (3, 5, 9, 25, 81):
        if abs(float(cst.constant_Kq(q, 12).consensus) - 1) > 3 / q:
            good = False
        if abs(float(cst.constant_Cq(q, 1, 12).consensus) - 1) > 3 / q:
            good = False
    out.append(_result("near-one-envelope", good, "q in {3,5,9,25,81}"))
    # truncation-doubling stability
    good = True
    for maker in (lambda d: cst.constant_Kq(3, d),
                  lambda d: cst.constant_cq_prime(3, d)):
        lo, hi = maker(12), maker(24)
        tol = min(m.tail_bound for m in lo.methods) + min(
            m.tail_bound for m in hi.methods)
        if abs(lo.consensus - hi.consensus) > tol:
            good = False
    out.append(_result("truncation-stability", good, "digits 12 versus 24"))
    return out


_SUITE_FUNCS = {
    "oracle": _oracle_checks,
    "identities": _identity_checks,
    "bounds": _bounds_checks,
    "constants": _constants_checks,
}


def run_suite(suite: str, seed: int = 0) -> SuiteReport:
    """Run one named suite and return its deterministic report."""
    if suite not in _SUITE_FUNCS:
        raise ValueError(f"unknown suite {suite!r}; choose from {SUITES}")
    results = _SUITE_FUNCS[suite](random.Random(seed))
    return SuiteReport(suite, seed, tuple(results))


def run_all(seed: int = 0) -> list[SuiteReport]:
    """All suites in canonical order, each with its own seeded stream."""
    return [run_suite(s, seed) for s in SUITES]
