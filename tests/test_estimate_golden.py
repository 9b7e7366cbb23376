"""Every `estimate` JSON document on the golden grid is byte-identical.

The digests in tests/data/estimate_golden.json were written by
tests/make_estimate_golden.py; see there for the grid and how to
regenerate it.
"""

import json

import pytest

import make_estimate_golden as golden

with open(golden.GOLDEN_PATH, encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def test_golden_file_covers_the_grid():
    assert sorted(GOLDEN) == sorted(" ".join(argv) for argv in golden.grid())


@pytest.mark.parametrize("argv", golden.grid(), ids=" ".join)
def test_estimate_output_matches_golden_digest(argv):
    assert golden.run(argv) == GOLDEN[" ".join(argv)]
