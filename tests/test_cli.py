"""The command-line surface: formats, flags, exit codes."""

import csv
import io
import json
import os
import subprocess
import sys
from dataclasses import replace
import pytest

import fqtcount
from fqtcount import cli, primecounts, universe
from fqtcount.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_landau_json_with_oracle(capsys):
    code, out, err = run(
        capsys, "count", "landau", "--q", "3", "--max-n", "5", "--oracle"
    )
    assert code == 0
    data = json.loads(out)
    assert data["values"] == {
        "0": "1", "1": "2", "2": "5", "3": "12", "4": "32", "5": "84",
    }
    assert data["oracle"]["all_match"] is True
    assert data["family"] == "landau-A2TB2"


def test_count_arith_with_a_large_unit_group_enumerates(capsys):
    code, out, err = run(
        capsys, "count", "arith", "--q", "3", "--m", "T^8+T^6+T^5+1", "--a", "1",
        "--max-n", "6",
    )
    assert code == 0, err
    assert json.loads(out)["values"] == {str(n): "1" if n == 0 else "0" for n in range(7)}


def test_count_arith_cap_bounds_enumeration_not_factoring(capsys, monkeypatch):
    # --cap 5000 covers the 3^4 degree-4 enumeration; factoring m for phi(m)
    # enumerates nothing and answers to neither cap
    argv = ("count", "arith", "--q", "3", "--m", "T^8+T^6+T^5+1", "--a", "1",
            "--max-n", "4")
    code, uncapped, err = run(capsys, *argv)
    assert code == 0, err
    monkeypatch.setenv("FQT_CAP", "50")
    monkeypatch.setattr(universe, "_UNIVERSE_CACHE", {})
    primecounts._character_table_fits.cache_clear()
    code, out, err = run(capsys, *argv, "--cap", "5000")
    assert code == 0, err
    assert out == uncapped


def test_estimate_arith_over_f27_stops_at_the_enumeration_cap_first(capsys, monkeypatch):
    # factoring m = T^8+T+2 over F_27 for phi(m) has no size limit; the
    # primes to the largest degree asked are over the default cap, so the
    # call fails before any degree is sieved
    monkeypatch.delenv("FQT_CAP", raising=False)
    monkeypatch.setattr(universe, "_UNIVERSE_CACHE", {})
    code, out, err = run(capsys, "estimate", "arith", "--q", "27", "--m", "T^8+T+2",
                         "--a", "1", "--n", "60")
    assert code == 3
    assert "exceeds cap 100000000" in err
    assert "plan" not in err
    assert universe._UNIVERSE_CACHE == {}


@pytest.mark.parametrize("argv", [
    # an oracle under --cap 0 checked no index and still passed
    ("count", "landau", "--q", "3", "--max-n", "2", "--oracle", "--cap", "0"),
    ("count", "arith", "--q", "3", "--m", "T^2+1", "--a", "1", "--max-n", "3", "--cap", "-1"),
    ("estimate", "landau", "--q", "3", "--n", "5", "--cap", "0"),
    # a negative precision printed a value to no digits
    ("constants", "kq", "--q", "3", "--digits", "-3"),
    ("constants", "kq", "--q", "3", "--digits", "0"),
    ("estimate", "landau", "--q", "3", "--n", "5", "--digits", "-2"),
])
def test_non_positive_cap_and_digits_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    flag = argv[-2]
    assert (code, out) == (2, "")
    assert f"error: {flag} must be positive" in err


def test_verify_takes_no_cap(capsys):
    code, out, err = run(capsys, "verify", "--cap", "5")
    assert code == 2
    assert "--cap" in err


def test_count_csv_columns(capsys):
    code, out, err = run(
        capsys, "count", "s2", "--q", "3", "--max-half-degree", "1",
        "--format", "csv", "--oracle",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "degree", "count", "method", "oracle_match"]
    assert rows[1] == ["0", "0", "1", "generating-function", "yes"]
    assert rows[2] == ["1", "2", "3", "generating-function", "yes"]


def test_count_even_q_landau_exits_2(capsys):
    code, out, err = run(capsys, "count", "landau", "--q", "4", "--max-n", "3")
    assert code == 2
    assert "odd q" in err


def test_count_missing_size_flag_exits_2(capsys):
    code, out, err = run(capsys, "count", "landau", "--q", "3")
    assert code == 2


def test_count_wrong_size_flag_for_family_exits_2(capsys):
    code, out, err = run(
        capsys, "count", "landau", "--q", "3", "--max-half-degree", "2"
    )
    assert code == 2
    code, out, err = run(
        capsys, "count", "s1", "--q", "3", "--max-n", "2"
    )
    assert code == 2


def test_count_divisors_roundtrip(capsys, tmp_path):
    lfile = tmp_path / "l.json"
    lfile.write_text('{"q": 3, "coefficients": [1]}')
    code, out, err = run(
        capsys, "count", "divisors", "--l-poly", str(lfile), "--r", "2",
        "--max-n", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert data["values"] == {"0": "1", "1": "3", "2": "24", "3": "180"}
    assert data["params"]["ell"] == "unbounded"


def test_count_divisors_bad_lpoly_exits_2(capsys, tmp_path):
    lfile = tmp_path / "bad.json"
    lfile.write_text('{"q": 3, "coefficients": [1, 5, 1]}')
    code, out, err = run(
        capsys, "count", "divisors", "--l-poly", str(lfile), "--r", "2",
        "--max-n", "3",
    )
    assert code == 2
    assert "invalid" in err


@pytest.mark.parametrize("text, field", [
    ('[3, [1]]', "JSON object"),
    ('{"coefficients": [1]}', '"q"'),
    ('{"q": 3}', '"coefficients"'),
    ('{"q": 3, "coefficients": null}', '"coefficients"'),
    ('{"q": 5, "coefficients": [1, 1.5, 5]}', '"coefficients"'),
    ('{"q": 5, "coefficients": [1, true, 5]}', '"coefficients"'),
    ('{"q": 5, "coefficients": "105"}', '"coefficients"'),
    ('{"q": 5.0, "coefficients": [1, 1, 5]}', '"q"'),
    ('{"q": 5, "coefficients": [1, 1, 5', "invalid"),
], ids=["list", "no-q", "no-coefficients", "null", "float", "bool", "string", "float-q",
        "truncated"])
def test_malformed_lpoly_exits_2_naming_file_and_field(capsys, tmp_path, text, field):
    # each is bad input, never read as some other polynomial: exit 2, no traceback
    lfile = tmp_path / "bad.json"
    lfile.write_text(text)
    code, out, err = run(
        capsys, "count", "divisors", "--l-poly", str(lfile), "--r", "2", "--max-n", "3",
    )
    assert code == 2, (out, err)
    assert out == "" and "Traceback" not in err
    assert str(lfile) in err and field in err


@pytest.mark.parametrize("coefficients, expected", [("[1]", 0), ("[1, -2, 5]", 2)])
def test_count_divisors_oracle_runs_in_genus_zero_only(capsys, tmp_path, coefficients,
                                                       expected):
    lfile = tmp_path / "l.json"
    lfile.write_text(f'{{"q": 5, "coefficients": {coefficients}}}')
    code, out, err = run(
        capsys, "count", "divisors", "--l-poly", str(lfile), "--r", "2",
        "--max-n", "3", "--oracle",
    )
    assert code == expected, err
    if expected:
        assert out == "" and "no enumeration oracle for the divisor families" in err
    else:
        data = json.loads(out)
        assert data["oracle"]["all_match"] is True
        assert sorted(data["oracle"]["checked"]) == ["0", "1", "2", "3"]


@pytest.mark.parametrize("argv", [
    ("count", "landau", "--q", "3", "--max-n", "2", "--r", "2"),
    ("count", "s2", "--q", "3", "--max-half-degree", "2", "--ell", "1"),
    ("count", "arith", "--q", "3", "--m", "T^2+1", "--a", "1", "--max-n", "2",
     "--l-poly", "{lpoly}"),
    ("count", "divisors", "--r", "2", "--l-poly", "{lpoly}", "--max-n", "2", "--q", "5"),
    ("estimate", "landau", "--q", "3", "--n", "5", "--m", "T"),
])
def test_flags_the_family_does_not_take_exit_2(capsys, tmp_path, argv):
    lfile = tmp_path / "g0.json"
    lfile.write_text('{"q": 3, "coefficients": [1]}')
    code, out, err = run(capsys, *(str(lfile) if a == "{lpoly}" else a for a in argv))
    assert code == 2 and out == ""
    assert err.startswith("error: ")


def test_genus_zero_divisor_estimates_print_the_s2_and_s3_bounds(capsys, tmp_path):
    lfile = tmp_path / "g0.json"
    lfile.write_text('{"q": 3, "coefficients": [1]}')
    for alias, ell, bound in (("s2", (), "4.396590e-02"), ("s3", ("--ell", "1"), "1.449750e-01")):
        code, out, err = run(capsys, "estimate", "divisors", "--l-poly", str(lfile),
                             "--r", "2", *ell, "--n", "150")
        assert code == 0, err
        divisors = json.loads(out)
        code, out, err = run(capsys, "estimate", alias, "--q", "3", "--n", "150")
        named = json.loads(out)
        assert divisors["error_bound"] == named["error_bound"] == bound
        assert divisors.pop("family") != named.pop("family")
        assert divisors == named


def test_count_cap_skips_expensive_rows(capsys):
    code, out, err = run(
        capsys, "count", "landau", "--q", "3", "--max-n", "5", "--oracle",
        "--cap", "10", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    marks = [row[4] for row in rows[1:]]
    assert marks[:3] == ["yes", "yes", "yes"]
    assert marks[3:] == ["skipped", "skipped", "skipped"]


def test_constants_kq(capsys):
    code, out, err = run(
        capsys, "constants", "kq", "--q", "3", "--digits", "15"
    )
    assert code == 0
    data = json.loads(out)
    assert data["name"] == "K_q"
    assert len(data["methods"]) >= 2
    assert data["consensus"].startswith("1.32027078722979")


def test_constants_cam_needs_m_and_a(capsys):
    code, out, err = run(capsys, "constants", "cam", "--q", "3")
    assert code == 2
    code, out, err = run(
        capsys, "constants", "cam", "--q", "3", "--m", "T", "--a", "1"
    )
    assert code == 0
    assert json.loads(out)["consensus"].startswith("0.7574203789")


def test_constants_csv(capsys):
    code, out, err = run(
        capsys, "constants", "cq", "--q", "3", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["tag", "value", "tail_bound"]
    assert rows[-1][0] == "consensus"


def test_estimate_landau_in_range(capsys):
    code, out, err = run(
        capsys, "estimate", "landau", "--q", "3", "--n", "200"
    )
    assert code == 0
    data = json.loads(out)
    assert data["in_range"] is True
    assert data["certified"] is True
    assert data["threshold"] == 149
    assert data["main_term"].startswith("1.3")
    assert data["exact"]["within_bound"] is True


def test_estimate_landau_out_of_range(capsys):
    code, out, err = run(capsys, "estimate", "landau", "--q", "3", "--n", "2")
    assert code == 0
    data = json.loads(out)
    assert data["in_range"] is False
    assert "simplified_error_bound" not in data


@pytest.mark.parametrize("ell", [None, "1"])
@pytest.mark.parametrize("n", [60, 200])
def test_estimate_divisors_in_range_is_the_reported_threshold(capsys, tmp_path, n, ell):
    lfile = tmp_path / "l.json"
    lfile.write_text('{"q": 5, "coefficients": [1, 1, 5]}')
    argv = ["estimate", "divisors", "--l-poly", str(lfile), "--r", "2", "--n", str(n)]
    code, out, err = run(capsys, *argv, *(["--ell", ell] if ell else []))
    assert code == 0, err
    data = json.loads(out)
    assert data["in_range"] == (n >= data["threshold"])
    assert ("simplified_error_bound" in data) == data["in_range"]


def test_estimate_arith_hypothesis_gate_exits_2(capsys):
    code, out, err = run(
        capsys, "estimate", "arith", "--q", "2", "--m", "T", "--a", "1",
        "--n", "50",
    )
    assert code == 2
    assert "c1" in err


def test_estimate_requires_positive_n(capsys):
    code, out, err = run(capsys, "estimate", "landau", "--q", "3", "--n", "0")
    assert code == 2


def test_verify_single_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "identities", "--seed", "7")
    assert code == 0
    assert out.startswith("suite identities seed 7")
    assert "passed 8/8" in out


def test_verify_json_format(capsys):
    code, out, err = run(
        capsys, "verify", "--suite", "identities", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data[0]["suite"] == "identities"
    assert data[0]["passed"] == data[0]["total"]


def test_verify_deterministic_output(capsys):
    _, out1, _ = run(capsys, "verify", "--suite", "bounds", "--seed", "3")
    _, out2, _ = run(capsys, "verify", "--suite", "bounds", "--seed", "3")
    assert out1 == out2


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "table.json"
    code, out, err = run(
        capsys, "count", "landau", "--q", "3", "--max-n", "2",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["values"]["2"] == "5"


def test_custom_field_flags(capsys):
    code, out, err = run(
        capsys, "count", "s1", "--p", "3", "--k", "2", "--max-half-degree", "1"
    )
    assert code == 0
    assert json.loads(out)["params"]["q"] == 9
    code, out, err = run(
        capsys, "count", "s1", "--q", "5", "--p", "3", "--k", "2",
        "--max-half-degree", "1",
    )
    assert code == 2


def test_unknown_family_exits_2(capsys):
    code, out, err = run(capsys, "count", "mystery", "--q", "3", "--max-n", "2")
    assert code == 2


def test_no_command_exits_2(capsys):
    assert main([]) == 2


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_estimate_outside_the_enclosure_exits_1(capsys, monkeypatch, fmt):
    # flipping every atilde_n turns the main term K_3 = 1.32 into 1/K_3
    real = cli.estimator_for

    def broken(spec, **kwargs):
        est = real(spec, **kwargs)

        def flipped(N):
            A, D = est.atilde_table(N)
            return [-a for a in A], D

        return replace(est, atilde_table=flipped, _cache={})

    monkeypatch.setattr(cli, "estimator_for", broken)
    code, out, err = run(
        capsys, "estimate", "landau", "--q", "3", "--n", "180", "--format", fmt
    )
    assert code == 1
    assert "outside the certified enclosure" in err
    if fmt == "json":
        assert json.loads(out)["exact"]["within_bound"] is False
    else:
        row = dict(zip(*csv.reader(io.StringIO(out))))
        assert row["within_bound"] == "False"


def test_estimate_order_one_has_no_certified_constant(capsys):
    code, out, err = run(capsys, "estimate", "landau", "--q", "3", "--n", "20",
                         "--order", "1")
    assert code == 2
    assert out == ""
    assert "m >= 1 has no certified absolute constant" in err
    code, out, err = run(capsys, "estimate", "--help")
    assert code == 0
    assert "only order 0 is certified" in " ".join(out.split())


@pytest.mark.parametrize("argv", [
    ("count", "arith", "--max-n", "8"),
    ("estimate", "arith", "--n", "20"),
])
def test_arith_psi_table_honours_the_cap(capsys, argv):
    code, out, err = run(capsys, *argv, "--q", "3", "--m", "T^3+2T+1", "--a", "1",
                         "--cap", "5")
    assert code == 3
    assert "exceeds cap 5" in err


def test_cap_error_names_the_degree_and_the_power(capsys):
    # T^8+T^6+T^5+1 has too many units for the character table, so the
    # estimate's table of 160 degrees would enumerate 3^160 polynomials:
    # the message names the degree and q^n as a power, not its 77 digits
    code, out, err = run(capsys, "estimate", "arith", "--q", "3", "--m", "T^8+T^6+T^5+1",
                         "--a", "1", "--n", "4", "--cap", "5000")
    assert code == 3 and out == ""
    assert err == "resource cap exceeded: degree 160: q^n = 3^160 exceeds cap 5000\n"


def test_cli_import_leaves_sympy_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fqtcount.__file__)))
    code = "import sys, fqtcount.cli; print('sympy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "False"


def test_benchmark_hooks_install_and_run_an_estimate():
    # bench/tracer.py wraps package names from outside the package; a rename
    # it does not follow makes every benchmark run fail
    src = os.path.dirname(os.path.dirname(os.path.abspath(fqtcount.__file__)))
    bench = os.path.join(os.path.dirname(src), "bench")
    code = (
        "import sys, fqtcount, fqtcount.cli, tracer\n"
        "tracer.install_counters(fqtcount)\n"
        "tracer.Tracer().install(fqtcount)\n"
        "sys.exit(fqtcount.cli.main(['estimate', 'landau', '--q', '3', '--n', '20']))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((src, bench))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr


def test_main_builds_the_parser_once(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_PARSER", None)
    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    argv = ("constants", "kq", "--q", "3", "--digits", "20")
    first = run(capsys, *argv)
    assert run(capsys, *argv) == first
    assert builds == [1]
    # a parse error leaves the kept parser as a fresh process would find it
    code, out, err = run(capsys, "estimate", "landau", "--q", "3")
    assert code == 2 and "--n" in err
    argv = ("estimate", "landau", "--q", "3", "--n", "40", "--format", "csv")
    code, out, err = run(capsys, *argv)
    assert builds == [1]
    src = os.path.dirname(os.path.dirname(os.path.abspath(fqtcount.__file__)))
    fresh = subprocess.run([sys.executable, "-m", "fqtcount.cli", *argv],
                           env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                           text=True, timeout=120)
    assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
