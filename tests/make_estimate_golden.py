"""Regenerate tests/data/estimate_golden.json: digests of `estimate` output.

Usage, from the root of a checkout:  python3 tests/make_estimate_golden.py

It runs the `estimate` subcommand on a fixed grid: landau at q in
{3, 5, 101}; s1 and s2 at q=3 and s3 at q in {3, 5}; arith at q=3 on
T^2+1 and T^3+2T+1 with two residues each; and the divisor family and its
ell=2 variant (r=2) on the genus-1 numerator 1+2u+5u^2.  Each runs at a
small n and at an n near the benchmark's sizes, at digits 30 and 100.
The sha256 of each JSON document is recorded with its exit code, so the
exact comparison, the bound, the threshold and every printed digit are
pinned.  tests/test_estimate_golden.py replays the grid and asserts that
every digest still matches.  Regenerate only when a change of output is
intended, and say why.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(TESTS_DIR), "src"))

from fqtcount import cli  # noqa: E402

GOLDEN_PATH = os.path.join(TESTS_DIR, "data", "estimate_golden.json")
L_POLY = {"q": 5, "coefficients": [1, 2, 5]}
LPOLY_ARG = "{lpoly}"  # replaced by the path of a file holding L_POLY
DIGITS = (30, 100)

FAMILIES = (
    (("landau", "--q", "3"), (10, 180)),
    (("landau", "--q", "5"), (10, 180)),
    (("landau", "--q", "101"), (10, 180)),
    (("s1", "--q", "3"), (10, 150)),
    (("s2", "--q", "3"), (10, 150)),
    (("s3", "--q", "3"), (10, 150)),
    (("s3", "--q", "5"), (10, 150)),
    (("arith", "--q", "3", "--m", "T^2+1", "--a", "1"), (10, 150)),
    (("arith", "--q", "3", "--m", "T^2+1", "--a", "T+2"), (10, 150)),
    (("arith", "--q", "3", "--m", "T^3+2T+1", "--a", "2"), (10, 150)),
    (("arith", "--q", "3", "--m", "T^3+2T+1", "--a", "T+1"), (10, 150)),
    (("divisors", "--r", "2", "--l-poly", LPOLY_ARG), (10, 60)),
    (("divisors", "--r", "2", "--ell", "2", "--l-poly", LPOLY_ARG), (10, 60)),
)


def grid() -> list[tuple[str, ...]]:
    """Every argument vector of the golden grid, in a fixed order."""
    return [
        ("estimate", *family, "--n", str(n), "--digits", str(d))
        for family, sizes in FAMILIES for n in sizes for d in DIGITS
    ]


def run(argv: tuple[str, ...]) -> dict:
    """sha256 of the JSON the CLI prints for argv, and its exit code."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "lpoly.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(L_POLY, fh)
        args = cli.build_parser().parse_args(
            [path if a == LPOLY_ARG else a for a in argv])
        text, code = args.func(args)
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "exit": code}


def main() -> None:
    golden = {" ".join(argv): run(argv) for argv in grid()}
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"{len(golden)} digests written to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
