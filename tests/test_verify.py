"""The self-check suites: all pass, deterministically."""

import hashlib
import random

import pytest

from fqtcount import ffield, verify
from fqtcount.families import FamilySpec
from fqtcount.ffield import factor
from fqtcount.verify import SUITES, run_all, run_suite


def test_suite_names():
    assert SUITES == ("oracle", "identities", "bounds", "constants")


def test_each_suite_passes():
    for suite in SUITES:
        report = run_suite(suite, seed=0)
        assert report.ok, report.render()
        assert report.suite == suite
        assert len(report.results) > 0


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suite("nonsense")


def test_render_format():
    report = run_suite("identities", seed=0)
    text = report.render()
    lines = text.splitlines()
    assert lines[0] == "suite identities seed 0"
    assert lines[-1].startswith("passed ")
    assert all(
        line.startswith(("ok  ", "FAIL")) for line in lines[1:-1]
    )


def test_reports_are_deterministic():
    a = run_suite("oracle", seed=7).render()
    b = run_suite("oracle", seed=7).render()
    assert a == b
    c = run_suite("oracle", seed=8).render()
    assert c.startswith("suite oracle seed 8")


def test_run_all_covers_every_suite():
    reports = run_all(seed=0)
    assert tuple(rep.suite for rep in reports) == SUITES
    assert all(rep.ok for rep in reports)


def test_identities_pass_when_a_generator_count_is_zero():
    # seed 3 draws a zero among the Moebius roundtrip's generator counts
    report = run_suite("identities", seed=3)
    assert report.ok, report.render()


def test_oracle_suite_passes_where_it_draws_s3_at_degree_8():
    # the third draw is the s3 q=5 index: 4 at seed 3, so degree 8
    draws = random.Random(3)
    assert [draws.randint(2, 4) for _ in range(3)] == [2, 4, 4]
    report = run_suite("oracle", seed=3)
    assert report.ok, report.render()
    assert "membership-vs-series s3 q=5: degree 8: 92685 vs 92685; 64/64 " in report.render()


def test_a_sampled_round_factors_each_polynomial_once(monkeypatch):
    # membership_oracle reads the factorization _sample_agrees already made
    calls = []

    def counting(field, f):
        calls.append(f)
        return factor(field, f)

    monkeypatch.setattr(verify, "factor", counting)
    monkeypatch.setattr(ffield, "factor", counting)
    agree, size = verify._sample_agrees(random.Random(0), FamilySpec("landau", q=3), 4)
    assert agree == size == len(calls) == len(set(calls)) == 64


def test_chi2_draws_pick_what_a_choice_from_the_list_would():
    # random.choice draws one _randbelow(len) either way
    field = ffield.field_for_order(5)
    for seed in range(4):
        listed, indexed = random.Random(seed), random.Random(seed)
        for _ in range(40):
            d = listed.randint(1, 3)
            assert indexed.randint(1, 3) == d
            assert (ffield.monic_at(field, d, indexed.choice(range(5**d)))
                    == listed.choice(ffield.enumerate_monic(field, d)))
        assert indexed.random() == listed.random()


@pytest.mark.parametrize("seed, digest", [
    # the identities reports as the listed draws rendered them
    (0, "4ab292a0dccdbd4ec45f1cfde2f70549b3015acb7b067e4fb24122c217755860"),
    (1, "a2fa6c9eca85da029a747f7fddbb894dab1f23f96555d1878eeed735e0e76272"),
    (2, "e5fc3614ca612e201b71e38af9b0903e23e70c6c7c781ba6c6a67ba8670869ea"),
])
def test_identities_report_is_unchanged_by_indexed_draws(seed, digest):
    text = run_suite("identities", seed=seed).render()
    assert hashlib.sha256(text.encode()).hexdigest() == digest
