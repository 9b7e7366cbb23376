"""The benchmark's workloads: which ops one run performs, built from a seed.

Every op is one call into the package's public surface: ``cli.main`` for
the ``count``, ``estimate``, ``constants`` and ``verify`` subcommands, or
``count_landau_poly_in_q``.  The seed varies the inputs, never the
amount of work:

* the progression residue a is drawn from the units mod m; the
  group-ring table covers every class, so each a costs the same;
* the genus-1 zeta numerator is 1 + a*u + 5*u^2 with |a| <= 4 (all of
  them satisfy the Hasse bound, none has a repeated root);
* each estimate index n moves within a +-5 window;
* the ``verify --seed`` value is drawn among the seeds whose randomized
  oracle-suite degrees equal VERIFY_DRAWS and whose identity-suite
  generator counts include a zero (see verify_seed).

Op kinds: "count" (tables without --oracle), "poly"
(count_landau_poly_in_q), "estimate", "constants" and "oracle"
(``count --oracle`` and ``verify``).
"""

from __future__ import annotations

import itertools
import random

WORKLOADS = ("exact-tables", "certify", "oracle")

# op kind -> the op-kind time it is summed into
KIND_METRIC = {
    "count": "count_s",
    "poly": "count_s",
    "estimate": "estimate_s",
    "constants": "constants_s",
    "oracle": "oracle_s",
}

ARITH_M_TABLE = (1, 2, 0, 1)  # T^3+2T+1, irreducible over F_3: 26 units
ARITH_M_SMALL = (1, 0, 1)  # T^2+1, irreducible over F_3: 8 units
REPEATED_ROOT = (1, 0, 10, 0, 25)  # (1 + 5u^2)^2, a valid genus-2 numerator
GENUS1_Q = 5
ESTIMATE_WINDOW = 5

# The verify oracle suite draws, from random.Random(seed), the scalar
# membership index for landau q=3, s1 q=3 and s3 q=5 (randint(2, 4)
# each) and the representation-search degree (randint(3, 5)).  The s3
# draw alone moves the cost from 0.02 s to minutes, so verify seeds are
# restricted to one draw tuple.
VERIFY_DRAWS = (4, 4, 2, 5)
# The verify identities suite draws N=12 generator counts randint(0, 50)
# for its Moebius roundtrip.  About one seed in five draws a 0, and the
# roundtrip then fails (the known defect below).  Verify seeds are drawn
# among those that draw a 0, so the defect shows in every run, and a fix
# shows as one failed op fewer on every seed, not on one seed in five.
IDENTITY_COUNTS = (12, 50)

# Failures the seed commit is known to have.  An op that fails with its
# signature here counts in "failed" but keeps the run "correct"; any
# other failure makes the run incorrect.
KNOWN_DEFECTS = {
    "count-divisors-repeated-root": (
        "exit 2: the float RH check rejects the valid (1+5u^2)^2 (ROADMAP item 4)"
    ),
    "estimate-s3-q5": (
        "exact ratio outside the certified enclosure for n >= 113 (ROADMAP item 1)"
    ),
    "verify": (
        "identities/moebius-roundtrip fails whenever a random generator count "
        "is 0, because g_from_psi drops zero counts (every verify seed drawn here)"
    ),
}


def poly_str(coeffs) -> str:
    """Coefficients low-to-high in the CLI grammar, e.g. (1, 2, 0, 1) -> T^3+2T+1."""
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            parts.append(f"{head}T" if i == 1 else f"{head}T^{i}")
    return "+".join(parts) if parts else "0"


def units_mod(q: int, m) -> list[str]:
    """Every unit residue mod an irreducible m: all nonzero polynomials of lower degree."""
    out = []
    for tail in itertools.product(range(q), repeat=len(m) - 1):
        if any(tail):
            out.append(poly_str(tail))
    return out


def genus1_lpolys() -> list[tuple[int, ...]]:
    return [(1, a, GENUS1_Q) for a in range(-4, 5)]


def verify_seed(rng: random.Random) -> int:
    """A verify seed with oracle-suite draws VERIFY_DRAWS and a zero generator count.

    Each verify suite draws from its own random.Random(seed).
    """
    s = rng.randrange(10**6)
    while True:
        r = random.Random(s)
        draws = (r.randint(2, 4), r.randint(2, 4), r.randint(2, 4), r.randint(3, 5))
        r = random.Random(s)
        N, top = IDENTITY_COUNTS
        zero_count = 0 in [r.randint(0, top) for _ in range(N)]
        if draws == VERIFY_DRAWS and zero_count:
            return s
        s += 1


def table_key(family: str, N: int, **params) -> str:
    """Reference key of one count table, e.g. "landau q=3 N=1500"."""
    fields = " ".join(f"{k}={v}" for k, v in params.items())
    return f"{family} {fields} N={N}"


def lpoly_str(coeffs) -> str:
    return ",".join(str(c) for c in coeffs)


def _count(op_id, family, size_flag, N, ref, kind="count", extra=(), lpoly=None):
    argv = ["count", family, *extra, size_flag, str(N)]
    if kind == "oracle":
        argv.append("--oracle")
    op = {"id": op_id, "kind": kind, "argv": argv,
          "check": "oracle_table" if kind == "oracle" else "table", "ref": ref}
    if lpoly is not None:
        op["lpoly"] = {"q": GENUS1_Q, "coefficients": list(lpoly)}
        op["argv"] += ["--l-poly", "{lpoly}"]
    return op


def exact_tables(rng: random.Random) -> list[dict]:
    a = rng.choice(units_mod(3, ARITH_M_TABLE))
    L = rng.choice(genus1_lpolys())
    m = poly_str(ARITH_M_TABLE)
    return [
        _count("count-landau-q3", "landau", "--max-n", 1500,
               table_key("landau", 1500, q=3), extra=["--q", "3"]),
        _count("count-landau-q101", "landau", "--max-n", 700,
               table_key("landau", 700, q=101), extra=["--q", "101"]),
        _count("count-s1-q3", "s1", "--max-half-degree", 800,
               table_key("s1", 800, q=3), extra=["--q", "3"]),
        _count("count-s2-q3", "s2", "--max-half-degree", 800,
               table_key("s2", 800, q=3), extra=["--q", "3"]),
        _count("count-s3-q5", "s3", "--max-half-degree", 600,
               table_key("s3", 600, q=5), extra=["--q", "5"]),
        _count("count-divisors", "divisors", "--max-n", 400,
               table_key("divisors", 400, r=2, L=lpoly_str(L)),
               extra=["--r", "2"], lpoly=L),
        _count("count-divisors-ell2", "divisors", "--max-n", 400,
               table_key("divisors", 400, r=2, ell=2, L=lpoly_str(L)),
               extra=["--r", "2", "--ell", "2"], lpoly=L),
        _count("count-divisors-repeated-root", "divisors", "--max-n", 400,
               table_key("divisors", 400, r=2, L=lpoly_str(REPEATED_ROOT)),
               extra=["--r", "2"], lpoly=REPEATED_ROOT),
        _count("count-arith-q3", "arith", "--max-n", 60,
               table_key("arith", 60, q=3, m=m, a=a),
               extra=["--q", "3", "--m", m, "--a", a]),
        {"id": "landau-poly-in-q", "kind": "poly", "n": 60,
         "check": "poly", "ref": "landau-poly-in-q n=60"},
    ]


def _estimate(op_id, family, n, extra=(), lpoly=None, digits=None):
    argv = ["estimate", family, *extra, "--n", str(n)]
    if digits is not None:
        argv += ["--digits", str(digits)]
    op = {"id": op_id, "kind": "estimate", "argv": argv, "check": "estimate"}
    if lpoly is not None:
        op["lpoly"] = {"q": GENUS1_Q, "coefficients": list(lpoly)}
        op["argv"] += ["--l-poly", "{lpoly}"]
    return op


def certify(rng: random.Random) -> list[dict]:
    def n(center):
        return center + rng.randint(-ESTIMATE_WINDOW, ESTIMATE_WINDOW)

    m = poly_str(ARITH_M_SMALL)
    a_est = rng.choice(units_mod(3, ARITH_M_SMALL))
    a_cam = rng.choice(units_mod(3, ARITH_M_SMALL))
    L = rng.choice(genus1_lpolys())
    ops = [
        _estimate("estimate-landau-q3", "landau", n(180), ["--q", "3"], digits=100),
        _estimate("estimate-s1-q3", "s1", n(150), ["--q", "3"], digits=100),
        _estimate("estimate-s2-q3", "s2", n(150), ["--q", "3"], digits=100),
        _estimate("estimate-s3-q5", "s3", n(150), ["--q", "5"]),
        _estimate("estimate-arith-q3", "arith", n(150),
                  ["--q", "3", "--m", m, "--a", a_est], digits=60),
        _estimate("estimate-divisors", "divisors", n(60), ["--r", "2"], lpoly=L),
    ]
    for name in ("kq", "cq1", "cq2", "cq3", "cq", "cqprime"):
        ops.append({"id": f"constants-{name}", "kind": "constants",
                    "argv": ["constants", name, "--q", "3", "--digits", "500"],
                    "check": "constants", "digits": 500,
                    "ref": f"{name} q=3 digits=500"})
    ops.append({"id": "constants-cam", "kind": "constants",
                "argv": ["constants", "cam", "--q", "3", "--m", m, "--a", a_cam,
                         "--digits", "60"],
                "check": "constants", "digits": 60,
                "ref": f"cam q=3 m={m} a={a_cam} digits=60"})
    return ops


def oracle(rng: random.Random) -> list[dict]:
    m = poly_str(ARITH_M_SMALL)
    a = rng.choice(units_mod(3, ARITH_M_SMALL))
    return [
        _count("oracle-landau-q3", "landau", "--max-n", 12,
               table_key("landau", 12, q=3), kind="oracle", extra=["--q", "3"]),
        _count("oracle-s1-q2", "s1", "--max-half-degree", 9,
               table_key("s1", 9, q=2), kind="oracle", extra=["--q", "2"]),
        _count("oracle-s3-q3", "s3", "--max-half-degree", 6,
               table_key("s3", 6, q=3), kind="oracle", extra=["--q", "3"]),
        _count("oracle-landau-q5", "landau", "--max-n", 8,
               table_key("landau", 8, q=5), kind="oracle", extra=["--q", "5"]),
        _count("oracle-arith-q3", "arith", "--max-n", 12,
               table_key("arith", 12, q=3, m=m, a=a), kind="oracle",
               extra=["--q", "3", "--m", m, "--a", a]),
        {"id": "verify", "kind": "oracle",
         "argv": ["verify", "--seed", str(verify_seed(rng)), "--format", "json"],
         "check": "verify"},
    ]


_BUILDERS = {"exact-tables": exact_tables, "certify": certify, "oracle": oracle}


def build(workload: str, seed: int) -> list[dict]:
    """The op list of one workload for one seed; same seed, same ops."""
    rng = random.Random(f"{workload}:{seed}")
    return _BUILDERS[workload](rng)
