"""Command-line surface for the package.

Four subcommands: ``count`` tabulates exact family counts, ``constants``
evaluates the limiting constants by independent methods, ``estimate``
produces a certified main-term estimate for one coefficient, and
``verify`` runs the self-check suites.  Output goes to stdout (or
``--output``) as JSON (default) or CSV; counts are serialized as decimal
strings because they outgrow 64-bit integers quickly.

Exit codes: 0 success, 1 internal mismatch (an oracle disagreement, a
failed verification check, or an exact ratio outside its certified
enclosure), 2 parameter errors, 3 resource cap exceeded: an enumeration
of more than ``--cap`` (else ``FQT_CAP``, else 10^8) polynomials of one
degree, or a table over its fixed limit.  Factoring one polynomial
enumerates nothing and has no limit.

Polynomials on the command line use the grammar ``T^2+2T+1``: terms
joined by ``+`` or ``-``, each a coefficient code in 0..q-1 times an
optional power of T.  For extension fields the code c encodes the
element c0 + c1*Y + ... with c = c0 + c1*p + ... in base p, Y a root of
the field modulus.  The ``--modulus`` flag takes the field's defining
polynomial over F_p in the same grammar (T or Y may be used as the
variable letter).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys

import mpmath

from . import families, ffield
from .asymptotics import (
    estimate_coefficient,
    estimator_for,
    exact_ratio,
)
from .constants import (
    constant_Cam,
    constant_Cq,
    constant_Kq,
    constant_cq,
    constant_cq_prime,
)
from .errors import (
    FqtError,
    NegativeCount,
    ResourceLimit,
    RHViolation,
    TruncationMismatch,
)
from .ffield import FieldSpec, default_cap
from .primecounts import LPolynomial
from .verify import SUITES, run_all, run_suite

_EXACT_COMPARISON_LIMIT = 400

_CAP_HELP = ("most monic polynomials of one degree (q^n) an enumeration may list "
             "(default FQT_CAP, else 10^8)")

_CONSTANT_NAMES = ("kq", "cq1", "cq2", "cq3", "cq", "cqprime", "cam")


# -- argument plumbing -----------------------------------------------


def _add_field_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--q", type=int, help="field order (a prime power)")
    sub.add_argument("--p", type=int, help="field characteristic (with --k)")
    sub.add_argument("--k", type=int, help="extension degree over F_p")
    sub.add_argument(
        "--modulus",
        help="defining polynomial of F_{p^k} over F_p, e.g. \"Y^2+1\"",
    )


def _add_family_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--r", type=int, help="degree stride of the divisor families")
    sub.add_argument("--ell", type=int, help="multiplicity bound (divisor family)")
    sub.add_argument(
        "--l-poly",
        metavar="FILE",
        help="JSON file {\"q\": ..., \"coefficients\": [...]} low-to-high",
    )
    sub.add_argument("--m", help="progression modulus, e.g. \"T^2+2T+1\"")
    sub.add_argument("--a", help="progression residue, e.g. \"1\" or \"T+2\"")


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format", choices=("json", "csv"), default="json", help="output format"
    )
    sub.add_argument("--output", metavar="PATH", help="write here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fqtcount",
        description="exact counts, limiting constants and certified "
        "estimates for multiplicative polynomial and divisor families",
        epilog=__doc__.split("\n\n")[-2],
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_count = subs.add_parser("count", help="tabulate exact counts of one family")
    p_count.add_argument("family", choices=families.SHORT_NAMES)
    _add_field_flags(p_count)
    _add_family_flags(p_count)
    p_count.add_argument(
        "--max-n", type=int, help="largest table index (degree-indexed families)"
    )
    p_count.add_argument(
        "--max-half-degree",
        type=int,
        help="largest table index for the even-degree families s1/s2/s3",
    )
    p_count.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check each feasible row against exhaustive enumeration",
    )
    p_count.add_argument("--cap", type=int, help=_CAP_HELP)
    _add_output_flags(p_count)
    p_count.set_defaults(func=cmd_count)

    p_const = subs.add_parser(
        "constants", help="evaluate a limiting constant by independent methods"
    )
    p_const.add_argument("name", choices=_CONSTANT_NAMES)
    _add_field_flags(p_const)
    p_const.add_argument("--m", help="progression modulus (for cam)")
    p_const.add_argument("--a", help="progression residue (for cam)")
    p_const.add_argument("--digits", type=int, default=30, help="target precision")
    _add_output_flags(p_const)
    p_const.set_defaults(func=cmd_constants)

    p_est = subs.add_parser(
        "estimate", help="certified main-term estimate of one coefficient"
    )
    p_est.add_argument("family", choices=families.SHORT_NAMES)
    _add_field_flags(p_est)
    _add_family_flags(p_est)
    p_est.add_argument("--n", type=int, required=True, help="target table index")
    p_est.add_argument(
        "--order", type=int, default=0,
        help="expansion order of the main term; only order 0 is certified "
             "here, and order >= 1 exits 2 (it needs a caller-supplied error "
             "constant, available from the Python API)",
    )
    p_est.add_argument("--digits", type=int, default=30, help="target precision")
    p_est.add_argument("--cap", type=int, help=_CAP_HELP)
    _add_output_flags(p_est)
    p_est.set_defaults(func=cmd_estimate)

    p_ver = subs.add_parser("verify", help="run the self-check suites")
    p_ver.add_argument(
        "--suite", choices=SUITES, help="run one suite (default: all of them)"
    )
    p_ver.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p_ver.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p_ver.add_argument("--output", metavar="PATH", help="write here instead of stdout")
    p_ver.set_defaults(func=cmd_verify)

    return parser


def _resolve_field(args) -> FieldSpec:
    """The working field from --q or from --p/--k/--modulus."""
    if args.p is None:
        if args.q is None:
            raise ValueError("need --q, or --p with --k")
        if args.k is not None or args.modulus is not None:
            raise ValueError("--k and --modulus need --p")
        return ffield.field_for_order(args.q)
    prime_field = ffield.build_field(args.p, 1)
    modulus = None
    k = args.k
    if args.modulus is not None:
        text = args.modulus.replace("Y", "T").replace("y", "T")
        modulus = ffield.poly_from_string(prime_field, text).coeffs
        if k is None:
            k = len(modulus) - 1
    field = ffield.build_field(args.p, k if k is not None else 1, modulus)
    if args.q is not None and args.q != field.q:
        raise ValueError(f"--q {args.q} disagrees with --p/--k (order {field.q})")
    return field


def _load_l_poly(path: str) -> LPolynomial:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        L = LPolynomial.from_json(text)
        L.check_rh()
    except (ValueError, RHViolation) as exc:
        raise ValueError(f"l-polynomial in {path} is invalid: {exc}") from exc
    return L


def _family_spec(args) -> tuple[families.FamilySpec, FieldSpec | None]:
    """Assemble and validate the FamilySpec the flags describe, with the
    working field of an F_q[T] family (None for the divisor families,
    whose l-polynomial carries q); a flag the family does not take is a
    parameter error."""
    family = families.canonical_family(args.family)
    takes = families.family_fields(family)
    for flag in ("q", "p", "k", "modulus", "r", "ell", "l_poly", "m", "a"):
        field_flag = flag in ("q", "p", "k", "modulus")
        if getattr(args, flag) is not None and ("q" if field_flag else flag) not in takes:
            raise ValueError(f"family {args.family} takes no --{flag.replace('_', '-')}")
    field = None
    if "l_poly" in takes:
        if args.l_poly is None:
            raise ValueError("divisor families need --l-poly")
        if args.r is None:
            raise ValueError("divisor families need --r")
        L = _load_l_poly(args.l_poly)
        if args.ell is not None:
            family = families.FAMILY_DIVISORS_ELL
        spec = families.FamilySpec(family, l_poly=L, r=args.r, ell=args.ell)
    elif "m" in takes:
        field = _resolve_field(args)
        if args.m is None or args.a is None:
            raise ValueError("the progression family needs --m and --a")
        canonical = ffield.field_for_order(field.q)
        if field.modulus != canonical.modulus:
            raise ValueError(
                "a custom field modulus would make the element codes in "
                "--m/--a ambiguous; use the default modulus"
            )
        m = ffield.poly_from_string(field, args.m)
        a = ffield.poly_from_string(field, args.a, monic=False)
        spec = families.FamilySpec(family, q=field.q, m=m.coeffs, a=a)
    else:
        field = _resolve_field(args)
        spec = families.FamilySpec(family, q=field.q)
    spec.validate()
    return spec, field


def _table_size(args, spec: families.FamilySpec) -> int:
    half = spec.half_degree
    N, other = (args.max_half_degree, args.max_n) if half else (args.max_n, args.max_half_degree)
    if N is None:
        raise ValueError("the even-degree families take --max-half-degree" if half
                         else f"family {args.family} takes --max-n")
    if other is not None:
        raise ValueError("--max-n and --max-half-degree are exclusive" if half
                         else "--max-half-degree applies to s1/s2/s3 only")
    if N < 0:
        raise ValueError("the table size must be nonnegative")
    return N


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# -- subcommands -----------------------------------------------------


def cmd_count(args) -> tuple[str, int]:
    spec, field = _family_spec(args)
    N = _table_size(args, spec)
    table = families.count_table(spec, N, cap=args.cap)

    matches: dict[int, bool] = {}
    code = 0
    if args.oracle:
        field = field or spec.field()  # raises for a curve of genus >= 1
        budget = args.cap if args.cap is not None else default_cap()
        step = spec.degree_step
        for n in range(N + 1):
            if field.q ** (step * n) > budget:
                continue
            truth = families.oracle_count(field, spec, step * n, cap=args.cap)
            matches[n] = truth == table.value(n)
        if not all(matches.values()):
            bad = sorted(n for n, ok in matches.items() if not ok)
            print(f"oracle mismatch at indices {bad}", file=sys.stderr)
            code = 1

    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["index", "degree", "count", "method", "oracle_match"])
        for n in range(N + 1):
            mark = ""
            if args.oracle:
                mark = {True: "yes", False: "no"}.get(matches.get(n), "skipped")
            writer.writerow(
                [n, spec.degree_step * n, str(table.value(n)), table.method, mark]
            )
        return buf.getvalue(), code

    payload = table.to_json()
    if args.oracle:
        payload["oracle"] = {
            "checked": {str(n): matches[n] for n in sorted(matches)},
            "all_match": code == 0,
        }
    return _dump_json(payload), code


def cmd_constants(args) -> tuple[str, int]:
    name = args.name
    if name == "cam":
        field = _resolve_field(args)
        if args.m is None or args.a is None:
            raise ValueError("constants cam needs --m and --a")
        m = ffield.poly_from_string(field, args.m)
        a = ffield.poly_from_string(field, args.a, monic=False)
        report = constant_Cam(field, a, m, digits=args.digits)
    else:
        if args.q is None and args.p is None:
            raise ValueError(f"constants {name} needs --q")
        q = _resolve_field(args).q
        if name == "kq":
            report = constant_Kq(q, digits=args.digits)
        elif name in ("cq1", "cq2", "cq3"):
            report = constant_Cq(q, int(name[2]), digits=args.digits)
        elif name == "cq":
            report = constant_cq(q, digits=args.digits)
        else:
            report = constant_cq_prime(q, digits=args.digits)

    code = 0 if report.agreement() else 1
    if code:
        print("constant methods disagree beyond their tail bounds", file=sys.stderr)
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["tag", "value", "tail_bound"])
        data = report.to_json(digits=args.digits)
        for method in data["methods"]:
            writer.writerow([method["tag"], method["value"], method["tail_bound"]])
        writer.writerow(["consensus", data["consensus"], ""])
        return buf.getvalue(), code
    return _dump_json(report.to_json(digits=args.digits)), code


def cmd_estimate(args) -> tuple[str, int]:
    spec, _ = _family_spec(args)
    if args.n < 1:
        raise ValueError("--n must be at least 1")
    est = estimator_for(spec, m=args.order, cap=args.cap)
    result = estimate_coefficient(est, args.n, digits=args.digits)

    payload = {
        "family": result.label,
        "n": args.n,
        "order": args.order,
        "certified": result.certified,
        "in_range": bool(result.in_range),
        "threshold": result.threshold,
    }
    with mpmath.workdps(args.digits + 10):
        b_n = (
            mpmath.mpf(result.b_n.numerator)
            / mpmath.mpf(result.b_n.denominator)
        )
        payload["b_n"] = mpmath.nstr(b_n, args.digits)
        payload["main_term"] = mpmath.nstr(result.main_term, args.digits)
        payload["estimate"] = mpmath.nstr(b_n * result.main_term, args.digits)
    payload["error_bound"] = "%.6e" % result.error_bound
    payload["eval_tail_bound"] = "%.6e" % result.eval_tail_bound
    if result.simplified_error_bound is not None:
        payload["simplified_error_bound"] = "%.6e" % result.simplified_error_bound

    code = 0
    if args.n <= _EXACT_COMPARISON_LIMIT:
        exact = families.count_table(spec, args.n, cap=args.cap).value(args.n)
        ratio = exact_ratio(exact, est, args.n)
        within = result.contains_ratio(ratio)
        if not within:
            print("exact ratio outside the certified enclosure", file=sys.stderr)
            code = 1
        with mpmath.workdps(args.digits + 10):
            ratio_mpf = mpmath.mpf(ratio.numerator) / mpmath.mpf(ratio.denominator)
            payload["exact"] = {
                "count": str(exact),
                "ratio": mpmath.nstr(ratio_mpf, args.digits),
                "within_bound": within,
            }

    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        keys = [k for k in sorted(payload) if k != "exact"]
        if "exact" in payload:
            keys += ["exact_count", "exact_ratio", "within_bound"]
            payload["exact_count"] = payload["exact"]["count"]
            payload["exact_ratio"] = payload["exact"]["ratio"]
            payload["within_bound"] = payload["exact"]["within_bound"]
        writer.writerow(keys)
        writer.writerow([payload[k] for k in keys])
        return buf.getvalue(), code
    return _dump_json(payload), code


def cmd_verify(args) -> tuple[str, int]:
    if args.suite is None:
        reports = run_all(seed=args.seed)
    else:
        reports = [run_suite(args.suite, seed=args.seed)]
    code = 0 if all(rep.ok for rep in reports) else 1
    if args.format == "json":
        payload = [
            {
                "suite": rep.suite,
                "seed": rep.seed,
                "passed": sum(res.passed for res in rep.results),
                "total": len(rep.results),
                "results": [
                    {"name": res.name, "passed": res.passed, "detail": res.detail}
                    for res in rep.results
                ],
            }
            for rep in reports
        ]
        return _dump_json(payload), code
    return "".join(rep.render() for rep in reports), code


# -- entry point -----------------------------------------------------


def _check_positive(args) -> None:
    """--cap and --digits below 1 are parameter errors, as FQT_CAP is."""
    for flag in ("cap", "digits"):
        value = getattr(args, flag, None)
        if value is not None and value < 1:
            raise ValueError(f"--{flag} must be positive")


# built by the first main() call, not at import, and reused: parsing
# leaves the parser unchanged
_PARSER: argparse.ArgumentParser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        _check_positive(args)
        text, code = args.func(args)
    except ResourceLimit as exc:
        print(f"resource cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (RHViolation, NegativeCount, TruncationMismatch) as exc:
        print(f"internal mismatch: {exc}", file=sys.stderr)
        return 1
    except (FqtError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(text, args.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
