"""Regenerate bench/reference.json: the outputs every benchmark op is checked against.

Usage, from the root of a checkout:  python3 bench/make_reference.py

It computes every table, polynomial and constant any seed can ask for
through the library, cross-checks them, and writes their digests.  The
cross-checks, all exact:

* every F_q[T] table equals the sieve oracle at each index whose degree
  has at most ORACLE_LIMIT monic polynomials;
* s1 * s2 = 1/(1 - q^2 x) at q=3 up to the full N (their log
  coefficients add up to q^{2n});
* for each genus-1 numerator, (ell=2 table)(x) * (unbounded table)(x^3)
  equals the unbounded table up to N;
* B(n, q) from count_landau_poly_in_q equals the landau tables at q=3
  and q=5 (and at q=101 for n <= 60);
* the repeated-root numerator (1+5u^2)^2, which the CLI rejects at this
  commit, gets its table from the same product form without the RH
  check, after its point counts are checked against the closed form
  q^n + 1 - S_n, S_n = 4(-5)^(n/2) for even n and 0 for odd n.

Every constant report must agree across its methods.  The file also
records a census of the seed-dependent ops: which estimate indices and
how many verify seeds fail at this commit.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH_DIR)

from fqtcount import asymptotics, constants, families, ffield, series, verify  # noqa: E402
from fqtcount.families import FamilySpec  # noqa: E402
from fqtcount.primecounts import LPolynomial  # noqa: E402

import workloads as wl  # noqa: E402

ORACLE_LIMIT = 5 * 10**6
SEEDS_CHECKED = 400  # every reference key these workload seeds use must exist


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def log(msg: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


def digest(values: list[int]) -> str:
    return sha("\n".join(str(v) for v in values))


def oracle_check(spec: FamilySpec, values: list[int]) -> int:
    """Compare against the sieve at every reachable index; returns the top degree checked."""
    field = spec.field()
    step = spec.degree_step
    top = 0
    for n in range(1, len(values)):
        if field.q ** (step * n) > ORACLE_LIMIT:
            break
        truth = families.oracle_count(field, spec, step * n, cap=ORACLE_LIMIT)
        if truth != values[n]:
            raise AssertionError(f"{spec} disagrees with the sieve at index {n}")
        top = step * n
    return top


def poly_table(family: str, q: int, N: int, m=None, a=None) -> list[int]:
    if family == "arith":
        field = ffield.field_for_order(q)
        spec = FamilySpec(families.FAMILY_ARITH, q=q, m=m,
                          a=ffield.poly_from_string(field, a, monic=False))
    else:
        spec = FamilySpec(families.canonical_family(family), q=q)
    table = families.count_table(spec, N)
    values = [table.value(n) for n in range(N + 1)]
    top = oracle_check(spec, values)
    log(f"{family} q={q} N={N} {'a=' + a if a else ''}: sieve agrees to degree {top}")
    return values


def divisor_values(L: LPolynomial, r: int, ell, N: int, rh_check: bool = True) -> list[int]:
    if rh_check:
        table = families.count_divisors(L, r, ell, N)
        return [table.value(n) for n in range(N + 1)]
    assert ell is None
    g = {n: L.pi(r * n) for n in range(1, N + 1)}
    return list(series.product_form(g, N).coeffs)


def convolve(a: list[int], b: list[int]) -> list[int]:
    N = len(a) - 1
    return [sum(a[i] * b[n - i] for i in range(n + 1)) for n in range(N + 1)]


def tables() -> dict[str, str]:
    out = {}
    m_table = wl.poly_str(wl.ARITH_M_TABLE)
    m_small = wl.poly_str(wl.ARITH_M_SMALL)

    landau3 = poly_table("landau", 3, 1500)
    out[wl.table_key("landau", 1500, q=3)] = digest(landau3)
    landau101 = poly_table("landau", 101, 700)
    out[wl.table_key("landau", 700, q=101)] = digest(landau101)
    s1 = poly_table("s1", 3, 800)
    s2 = poly_table("s2", 3, 800)
    if convolve(s1, s2) != [9**n for n in range(801)]:
        raise AssertionError("s1 * s2 != 1/(1 - 9x) at q=3")
    log("s1 * s2 = 1/(1 - q^2 x) holds at q=3, N=800")
    out[wl.table_key("s1", 800, q=3)] = digest(s1)
    out[wl.table_key("s2", 800, q=3)] = digest(s2)
    out[wl.table_key("s3", 600, q=5)] = digest(poly_table("s3", 5, 600))

    for coeffs in wl.genus1_lpolys():
        L = LPolynomial(wl.GENUS1_Q, coeffs)
        full = divisor_values(L, 2, None, 400)
        bounded = divisor_values(L, 2, 2, 400)
        cubed = [full[n // 3] if n % 3 == 0 else 0 for n in range(401)]
        if convolve(bounded, cubed) != full:
            raise AssertionError(f"ell=2 identity fails for {coeffs}")
        out[wl.table_key("divisors", 400, r=2, L=wl.lpoly_str(coeffs))] = digest(full)
        out[wl.table_key("divisors", 400, r=2, ell=2, L=wl.lpoly_str(coeffs))] = digest(bounded)
    log("divisor tables: ell=2 identity holds for all 9 genus-1 numerators")

    L = LPolynomial(wl.GENUS1_Q, wl.REPEATED_ROOT)
    for n in range(1, 801):
        S_n = 0 if n % 2 else 4 * (-5) ** (n // 2)
        if L.point_count(n) != 5**n + 1 - S_n:
            raise AssertionError(f"repeated-root point count wrong at {n}")
    out[wl.table_key("divisors", 400, r=2, L=wl.lpoly_str(wl.REPEATED_ROOT))] = digest(
        divisor_values(L, 2, None, 400, rh_check=False))
    log("repeated-root table built without the RH check; point counts match")

    for a in wl.units_mod(3, wl.ARITH_M_TABLE):
        values = poly_table("arith", 3, 60, m=wl.ARITH_M_TABLE, a=a)
        out[wl.table_key("arith", 60, q=3, m=m_table, a=a)] = digest(values)

    out[wl.table_key("landau", 12, q=3)] = digest(landau3[:13])
    out[wl.table_key("s1", 9, q=2)] = digest(poly_table("s1", 2, 9))
    out[wl.table_key("s3", 6, q=3)] = digest(poly_table("s3", 3, 6))
    landau5 = poly_table("landau", 5, 8)
    out[wl.table_key("landau", 8, q=5)] = digest(landau5)
    for a in wl.units_mod(3, wl.ARITH_M_SMALL):
        values = poly_table("arith", 3, 12, m=wl.ARITH_M_SMALL, a=a)
        out[wl.table_key("arith", 12, q=3, m=m_small, a=a)] = digest(values)

    B = [families.count_landau_poly_in_q(n) for n in range(61)]
    for q, table in ((3, landau3), (5, landau5), (101, landau101)):
        top = min(60, len(table) - 1)
        if [B[n](q) for n in range(top + 1)] != table[: top + 1]:
            raise AssertionError(f"B(n, q) disagrees with the landau table at q={q}")
    log("B(n, q) matches the landau tables at q = 3, 5, 101")
    return out


def constant_refs() -> dict[str, str]:
    out = {}
    makers = {
        "kq": lambda: constants.constant_Kq(3, 500),
        "cq1": lambda: constants.constant_Cq(3, 1, 500),
        "cq2": lambda: constants.constant_Cq(3, 2, 500),
        "cq3": lambda: constants.constant_Cq(3, 3, 500),
        "cq": lambda: constants.constant_cq(3, 500),
        "cqprime": lambda: constants.constant_cq_prime(3, 500),
    }
    for name, make in makers.items():
        report = make()
        assert report.agreement(), name
        out[f"{name} q=3 digits=500"] = report.to_json(digits=500)["consensus"]
    field = ffield.field_for_order(3)
    m_small = wl.poly_str(wl.ARITH_M_SMALL)
    m = ffield.poly_from_string(field, m_small)
    for a in wl.units_mod(3, wl.ARITH_M_SMALL):
        a_coeffs = ffield.poly_from_string(field, a, monic=False)
        report = constants.constant_Cam(field, a_coeffs, m, digits=60)
        assert report.agreement(), a
        out[f"cam q=3 m={m_small} a={a} digits=60"] = report.to_json(digits=60)["consensus"]
    log("constants: every report agrees across its methods")
    return out


def census() -> dict:
    """Which seed-dependent estimate and verify variants fail at this commit."""
    field = ffield.field_for_order(3)
    cases = [
        ("estimate-landau-q3", FamilySpec(families.FAMILY_LANDAU, q=3), 180, 100),
        ("estimate-s1-q3", FamilySpec(families.FAMILY_S1, q=3), 150, 100),
        ("estimate-s2-q3", FamilySpec(families.FAMILY_S2, q=3), 150, 100),
        ("estimate-s3-q5", FamilySpec(families.FAMILY_S3, q=5), 150, 30),
    ]
    m = wl.ARITH_M_SMALL
    for a in wl.units_mod(3, m):
        a_coeffs = ffield.poly_from_string(field, a, monic=False)
        cases.append((f"estimate-arith-q3 a={a}",
                      FamilySpec(families.FAMILY_ARITH, q=3, m=m, a=a_coeffs), 150, 60))
    for coeffs in wl.genus1_lpolys():
        L = LPolynomial(wl.GENUS1_Q, coeffs)
        cases.append((f"estimate-divisors L={wl.lpoly_str(coeffs)}",
                       FamilySpec(families.FAMILY_DIVISORS, l_poly=L, r=2), 60, 30))
    out = {}
    w = wl.ESTIMATE_WINDOW
    for label, spec, center, digits in cases:
        est = asymptotics.estimator_for(spec)
        table = families.count_table(spec, center + w)
        failing = []
        for n in range(center - w, center + w + 1):
            res = asymptotics.estimate_coefficient(est, n, digits=digits)
            if not res.contains_ratio(asymptotics.exact_ratio(table.value(n), est, n)):
                failing.append(n)
        out[label] = {"window": [center - w, center + w], "n_outside_bound": failing}
    log("estimate census done")

    rng_seeds = [wl.verify_seed(random.Random(s)) for s in range(40)]
    bad = [s for s in rng_seeds if not verify.run_suite("identities", seed=s).ok]
    out["verify identities"] = {"seeds_tried": len(rng_seeds), "failing": len(bad)}
    log(f"verify census: {len(bad)} of {len(rng_seeds)} seeds fail identities")
    return out


def main() -> None:
    ref = {
        "note": "written by bench/make_reference.py; digests are sha256 of the "
                "decimal values joined by newlines",
        "oracle_limit": ORACLE_LIMIT,
        "tables": tables(),
        "poly": {"landau-poly-in-q n=60": sha(str(families.count_landau_poly_in_q(60)))},
        "constants": constant_refs(),
        "census": census(),
    }
    wanted = {op["ref"] for w in wl.WORKLOADS for s in range(SEEDS_CHECKED)
              for op in wl.build(w, s) if "ref" in op}
    missing = wanted - set(ref["tables"]) - set(ref["poly"]) - set(ref["constants"])
    if missing:
        raise AssertionError(f"no reference for {sorted(missing)}")
    with open(os.path.join(BENCH_DIR, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    log("reference.json written")


if __name__ == "__main__":
    main()
