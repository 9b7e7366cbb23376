"""Regenerate tests/data/constants_golden.json: digests of `constants` output.

Usage, from the root of a checkout:  python3 tests/make_constants_golden.py

It runs the `constants` subcommand on a fixed grid (every named constant
at q in {3, 5, 9, 101} and digits in {30, 100, 500}, plus one residue-class
constant) and records the sha256 of each JSON document with its exit
code.  tests/test_constants_golden.py replays the grid and asserts that
every digest still matches, so a change to how the constants are
computed must leave their printed values and tails byte-identical.
Regenerate only when a change of output is intended, and say why.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(TESTS_DIR), "src"))

from fqtcount import cli  # noqa: E402

GOLDEN_PATH = os.path.join(TESTS_DIR, "data", "constants_golden.json")
NAMES = ("kq", "cq1", "cq2", "cq3", "cq", "cqprime")
QS = (3, 5, 9, 101)
DIGITS = (30, 100, 500)


def grid() -> list[tuple[str, ...]]:
    """Every argument vector of the golden grid, in a fixed order."""
    runs = [
        ("constants", name, "--q", str(q), "--digits", str(d))
        for name in NAMES for q in QS for d in DIGITS
    ]
    runs.append(("constants", "cam", "--q", "3", "--m", "T^2+1", "--a", "1",
                 "--digits", "60"))
    return runs


def run(argv: tuple[str, ...]) -> dict:
    """sha256 of the JSON the CLI prints for argv, and its exit code."""
    args = cli.build_parser().parse_args(list(argv))
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
