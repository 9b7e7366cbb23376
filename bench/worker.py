"""One benchmark round: a fresh interpreter runs a workload's ops in order.

Usage (from run.py): python3 bench/worker.py ROOT SPAWN_TIME MODE < ops.json

ROOT is the checkout; the package is imported from ROOT/src and from
nowhere else.  SPAWN_TIME is the parent's time.monotonic() just before
the spawn, so the first reported number is the set-up time: a fresh
interpreter up to ``import fqtcount.cli`` done.  MODE is "setup" (stop
there), "plain" (run the ops) or "traced" (run them under the layer
tracer).  The module caches start cold because the process is new; the
ops share them in order, as calls in one library session would.

Each op is timed from outside the package, then its output is checked.
The last stdout line is one JSON object with the per-op results, the
exact size counters, the peak RSS and, when traced, the layer metrics.
"""

from __future__ import annotations

import sys
import time

ROOT, SPAWN_TIME, MODE = sys.argv[1], float(sys.argv[2]), sys.argv[3]
sys.path.insert(0, f"{ROOT}/src")
import fqtcount  # noqa: E402
import fqtcount.cli  # noqa: E402  (CLI users pay for this module too)

SETUP_S = time.monotonic() - SPAWN_TIME
if not fqtcount.__file__.startswith(f"{ROOT}/src/"):
    sys.exit(f"fqtcount imported from {fqtcount.__file__}, not from {ROOT}/src")

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
import tracer  # noqa: E402
from workloads import KNOWN_DEFECTS  # noqa: E402


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def table_digest(payload: dict) -> tuple[str, int, int]:
    """(digest, N, largest coefficient bit length) of a count table's values."""
    N = payload["N"]
    values = [payload["values"][str(n)] for n in range(N + 1)]
    bits = max(int(v).bit_length() for v in values)
    return _sha("\n".join(values)), N, bits


def check(op: dict, code: int, text: str, err: str, ref: dict) -> tuple[bool, str, dict]:
    """(passed, detail, sizes) for one op's exit code and output."""
    kind = op["check"]
    if kind == "poly":
        want = ref["poly"][op["ref"]]
        return _sha(text) == want, "digest", {}
    if code != 0:
        return False, f"exit {code}: {err.strip()[:200]}", {}
    payload = json.loads(text)
    if kind in ("table", "oracle_table"):
        digest, N, bits = table_digest(payload)
        sizes = {"N": N, "max_coeff_bits": bits}
        if digest != ref["tables"][op["ref"]]:
            return False, "table digest differs from the reference", sizes
        if kind == "oracle_table":
            oracle = payload["oracle"]
            if not oracle["all_match"] or len(oracle["checked"]) != N + 1:
                return False, f"oracle checked {sorted(oracle['checked'])}", sizes
        return True, "matches reference", sizes
    if kind == "estimate":
        exact = payload.get("exact", {})
        sizes = {"max_coeff_bits": int(exact.get("count", "0")).bit_length()}
        ok = payload["certified"] and exact.get("within_bound") is True
        return ok, f"within_bound={exact.get('within_bound')}", sizes
    if kind == "constants":
        digits = op["digits"]
        with mpmath.workdps(digits + 10):
            got = mpmath.mpf(payload["consensus"])
            want = mpmath.mpf(ref["constants"][op["ref"]])
            ok = abs(got - want) <= mpmath.mpf(10) ** (5 - digits) * max(1, abs(want))
        return bool(ok), "consensus matches reference" if ok else "consensus differs", {}
    if kind == "verify":
        failing = failing_checks(payload)
        return not failing, ",".join(failing) or "all checks pass", {}
    raise ValueError(f"unknown check {kind!r}")


def failing_checks(payload: list) -> list[str]:
    return [f"{suite['suite']}/{res['name']}" for suite in payload
            for res in suite["results"] if not res["passed"]]


def known_defect(op: dict, code: int, text: str, err: str) -> bool:
    """Does a failed op fail exactly as the seed's known defect does?"""
    if op["id"] not in KNOWN_DEFECTS:
        return False
    if op["id"] == "count-divisors-repeated-root":
        return code == 2 and "inverse-root modulus" in err
    if op["id"] == "estimate-s3-q5":
        return code in (0, 1) and bool(text) and \
            json.loads(text).get("exact", {}).get("within_bound") is False
    if op["id"] == "verify":
        return bool(text) and set(failing_checks(json.loads(text))) == {
            "identities/moebius-roundtrip"}
    return False


def run_op(op: dict, tmp: str, cli_main, poly_in_q) -> dict:
    err = io.StringIO()
    code, text = 0, ""
    raised = None
    if op["kind"] == "poly":
        start = time.perf_counter()
        try:
            text = str(poly_in_q(op["n"]))
        except Exception as exc:  # an op that raises is a failed op
            raised = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - start
    else:
        argv = list(op["argv"])
        if "lpoly" in op:
            path = os.path.join(tmp, "lpoly.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(op["lpoly"], fh)
            argv[argv.index("{lpoly}")] = path
        out = os.path.join(tmp, "out")
        argv += ["--output", out]
        with contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = cli_main(argv)
            except Exception as exc:  # an op that raises is a failed op
                raised = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        if os.path.exists(out):
            with open(out, encoding="utf-8") as fh:
                text = fh.read()
            os.remove(out)
    return {"seconds": seconds, "code": code, "text": text,
            "err": err.getvalue(), "raised": raised}


def calibrate() -> float:
    """Seconds taken by a fixed mix of interpreter, big-integer and BLAS work.

    Run between ops; op times are rescaled by it (see run.py).  The BLAS
    product streams a few MB, so memory contention from other processes on
    the machine slows it as it slows the ops, and the rescaled times drift
    much less from run to run than the raw ones.
    """
    start = time.perf_counter()
    x = 0
    for i in range(60000):
        x += i * i % 7
    f = [1] + [0] * len(_CAL_PSI)
    for m in range(1, len(f)):
        f[m] = sum(_CAL_PSI[j - 1] * f[m - j] for j in range(1, m + 1)) // m
    for _ in range(2):
        np.matmul(_CAL_A, _CAL_M, out=_CAL_OUT)
        np.mod(_CAL_OUT, 3.0, out=_CAL_OUT)
        x += int(_CAL_OUT.sum())
    return time.perf_counter() - start


_CAL_PSI = [3**j // 2 + j for j in range(1, 301)]
_CAL_A = np.random.default_rng(0).random((60000, 16), dtype=np.float32)
_CAL_M = np.ones((16, 20), dtype=np.float32)
_CAL_OUT = np.empty((60000, 20), dtype=np.float32)
# calibrate() allocates nothing else of size, so the program's peak RSS
# is the process peak minus these buffers
_CAL_MIB = (_CAL_A.nbytes + _CAL_M.nbytes + _CAL_OUT.nbytes) / 2**20


def size_counters(counts: dict) -> dict:
    """Exact work counters, read from the package's caches after the ops."""
    universes = fqtcount.universe._UNIVERSE_CACHE.values()
    tables = fqtcount.primecounts._ARITH_CACHE.values()
    return {
        "rh_checks": counts["rh_checks"],
        "eval_terms": counts["eval_terms"],
        "polys_sieved": sum(len(spf) for uni in universes for spf in uni.spf_gid),
        "group_order": max((t.group.order for t in tables), default=0),
        "arith_max_degree": max((len(t._psi) for t in tables), default=0),
    }


def main() -> None:
    if MODE == "setup":
        print(json.dumps({"setup_s": SETUP_S, "calibration_s": calibrate()}))
        return
    ops = json.load(sys.stdin)
    with open(os.path.join(BENCH_DIR, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)
    counts = tracer.install_counters(fqtcount)
    trace = None
    cli_main, poly_in_q = fqtcount.cli.main, fqtcount.count_landau_poly_in_q
    if MODE == "traced":
        trace = tracer.Tracer()
        trace.install(fqtcount)
        cli_main = trace.entry(cli_main)
        poly_in_q = fqtcount.count_landau_poly_in_q  # rebound to its wrapper
    results = []
    scratch = os.path.join(ROOT, ".bench_out")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        cal = first_cal = calibrate()
        for op in ops:
            before = dict(counts)
            res = run_op(op, tmp, cli_main, poly_in_q)
            cal_before, cal = cal, calibrate()
            if res["raised"]:
                ok, detail, sizes = False, res["raised"][:200], {}
            else:
                try:
                    ok, detail, sizes = check(op, res["code"], res["text"], res["err"], ref)
                except (ValueError, KeyError, TypeError) as exc:  # malformed output
                    ok, detail, sizes = False, f"unreadable output: {exc!r}"[:200], {}
            results.append({
                "id": op["id"], "kind": op["kind"], "seconds": res["seconds"],
                "calibration_s": (cal_before + cal) / 2,
                "ok": ok,
                "known_defect": not ok and not res["raised"] and known_defect(
                    op, res["code"], res["text"], res["err"]),
                "detail": detail.replace(tmp, "<tmp>"), "sizes": sizes,
                "output_sha256": _sha(res["text"]),
                "counters": {k: counts[k] - before[k] for k in counts},
            })
    print(json.dumps({
        "setup_s": SETUP_S,
        "calibration_s": first_cal,
        "ops": results,
        "counters": size_counters(counts),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 - _CAL_MIB,
        "trace": trace.metrics() if trace else None,
    }))


if __name__ == "__main__":
    main()
