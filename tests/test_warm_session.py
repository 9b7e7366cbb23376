"""One library session: kept estimators and reports change no output.

Every case of the constants and estimate golden grids runs in one
process, from empty estimator and report caches, first in grid order and
then in reverse, with nothing cleared in between.  Each JSON document
must still match its golden digest.  A cache key that left out the
digits or a family parameter would hand one case's result to another
and break a digest.  The grids run at order 0 with no cap; the order,
error constant and cap parts of the estimator key are tested in
test_asymptotics.py.
"""

import json

import make_constants_golden
import make_estimate_golden

from fqtcount import asymptotics, constants


def test_warm_session_matches_both_golden_grids(monkeypatch):
    monkeypatch.setattr(asymptotics, "_ESTIMATOR_CACHE", {})
    monkeypatch.setattr(constants, "_REPORT_CACHE", {})
    cases = []
    for golden in (make_constants_golden, make_estimate_golden):
        with open(golden.GOLDEN_PATH, encoding="utf-8") as fh:
            digests = json.load(fh)
        cases += [(golden, argv, digests[" ".join(argv)]) for argv in golden.grid()]
    for golden, argv, digest in cases + cases[::-1]:
        assert golden.run(argv) == digest, " ".join(argv)
