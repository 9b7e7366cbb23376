"""The fqtcount benchmark.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact-tables|certify|oracle|all \\
        --seed N --seconds S --trace 0|1

A run spawns fresh worker interpreters (bench/worker.py) one after the
other.  Each is one round: the workload's ops once, in a fixed order,
starting from cold module caches as a CLI user does.  Rounds repeat
until the next one would end after --seconds (at least MIN_ROUNDS of
each kind run).  Each worker is single-threaded: BLAS and OpenMP are
pinned to one thread (the sieve's digit products go through BLAS), and
the setting is recorded.

Times are rescaled to a nominal machine speed.  This machine's speed
drifts by tens of percent from minute to minute, because other
processes share its cores and memory bandwidth.  So each worker runs a
short fixed calibration job (worker.calibrate) after its import and
between ops, and each time t is reported as t * CAL_NOMINAL_S / c,
with c the calibration time measured around it.  The raw times are
kept in the record.

--trace 0 reports the end-to-end metrics: norm_wall_s, the median over
rounds of the summed rescaled op times; setup_s, the median rescaled
time from spawning an interpreter to ``import fqtcount.cli`` done;
peak_rss_mb, the median of each worker's peak resident set, less the
calibration buffers.  --trace 1 alternates untraced and
traced rounds and reports the per-layer metrics: self time, calls and
errors per module from bench/tracer.py, the bucket times, the exact
size counters, the op-kind times (count_s, estimate_s, constants_s,
oracle_s from the untraced rounds) and trace.overhead_share.  These
are raw seconds; they have no bound.

Every op's output is checked (see worker.py).  "attempted" and "failed"
count the workload's ops, not their executions: how many rounds fit in
--seconds depends on the machine's speed, the op list does not.  An op
fails when it fails in any round; an op whose output or check result
differs between rounds fails as well.  "correct" is false when an op
failed in a way other than its recorded known defect
(workloads.KNOWN_DEFECTS).  The last stdout line is the result JSON; the
line before it is a record with per-op times, checks and counters, also
written to .bench_out/.  Exit status 0 on success; 1 when a worker
crashes or the package source is missing.

--workload all runs every workload with the given flags and prints each
metric by name and unit, including the op-kind times and
ops_failed_share, instead of a result line.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
sys.path.insert(0, BENCH_DIR)

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_ROUNDS = {1: 3, 2: 2}  # rounds of each kind, by the number of kinds
MIN_SETUP_SAMPLES = 7
# Calibration time (worker.calibrate) at nominal speed: op times are
# rescaled by CAL_NOMINAL_S / (calibration measured around the op).
CAL_NOMINAL_S = 0.05
WORKER_TIMEOUT = 170
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

END_TO_END = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
OP_KINDS = ("count_s", "estimate_s", "constants_s", "oracle_s")
COUNTERS = {
    "series.max_coeff_bits": "max_coeff_bits",
    "universe.polys_sieved": "polys_sieved",
    "primecounts.rh_checks": "rh_checks",
    "primecounts.arith_max_degree": "arith_max_degree",
    "primecounts.group_order": "group_order",
    "asymptotics.eval_terms": "eval_terms",
}


def _per_layer_units() -> dict[str, str]:
    units = {}
    for layer in tracer.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.errors"] = "count"
    units.update(dict.fromkeys(tracer.BUCKET_METRICS, "s"))
    units.update({name: "count" for name in COUNTERS})
    units["series.max_coeff_bits"] = "bits"
    units.update({f"ops.{kind}": "s" for kind in OP_KINDS})
    units["trace.overhead_share"] = "ratio"
    return units


PER_LAYER = _per_layer_units()


class BenchError(Exception):
    pass


def spawn(mode: str, ops: list) -> tuple[dict, float]:
    """Run one worker; returns its result and the round's full duration."""
    env = {**os.environ, **THREAD_ENV}
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, ROOT, repr(start), mode],
            input=json.dumps(ops), capture_output=True, text=True, env=env,
            cwd=ROOT, timeout=WORKER_TIMEOUT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded {WORKER_TIMEOUT} s") from exc
    duration = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(lines[-1]), duration


def run_rounds(ops: list, seconds: float, kinds: tuple[str, ...]) -> list[dict]:
    """Alternate the round kinds until the next round would overrun the budget."""
    spawn("setup", [])  # compiles bytecode once; not a sample
    rounds: list[dict] = []
    last: dict[str, float] = {}
    start = time.monotonic()
    i = 0
    while True:
        mode = kinds[i % len(kinds)]
        elapsed = time.monotonic() - start
        if i >= MIN_ROUNDS[len(kinds)] * len(kinds) and elapsed + last[mode] > seconds:
            break
        result, last[mode] = spawn(mode, ops)
        result["mode"] = mode
        rounds.append(result)
        i += 1
    return rounds


def _median(values):
    return statistics.median(values) if values else 0.0


def _norm_wall(round_: dict) -> float:
    return sum(op["seconds"] * CAL_NOMINAL_S / op["calibration_s"] for op in round_["ops"])


def outcomes(rounds: list[dict]) -> list[dict]:
    """One outcome per op: every round runs the same ops on the same inputs."""
    out = []
    for i, first in enumerate(rounds[0]["ops"]):
        runs = [r["ops"][i] for r in rounds]
        repeats = len({(op["output_sha256"], op["ok"], op["known_defect"])
                       for op in runs}) == 1
        out.append({
            "ok": repeats and first["ok"],
            "known_defect": repeats and first["known_defect"],
            "detail": first["detail"] if repeats else "output differs between rounds",
        })
    return out


def summarize(workload: str, seed: int, rounds: list[dict], setup: list[float],
              trace: bool) -> dict:
    plain = [r for r in rounds if r["mode"] == "plain"]
    traced = [r for r in rounds if r["mode"] == "traced"]
    ops = [{**op, **outcome} for op, outcome in zip(plain[0]["ops"], outcomes(rounds))]
    failed = [op for op in ops if not op["ok"]]
    unexpected = [op for op in failed if not op["known_defect"]]
    walls = [sum(op["seconds"] for op in r["ops"]) for r in plain]
    norm_walls = [_norm_wall(r) for r in plain]
    kind_times = {
        kind: _median([sum(op["seconds"] for op in r["ops"]
                           if workloads.KIND_METRIC[op["kind"]] == kind) for r in plain])
        for kind in OP_KINDS
    }
    counters = dict(plain[0]["counters"])
    counters["max_coeff_bits"] = max(
        (op["sizes"].get("max_coeff_bits", 0) for op in plain[0]["ops"]), default=0)
    end_to_end = {
        "norm_wall_s": _median(norm_walls),
        "setup_s": _median(setup),
        "peak_rss_mb": _median([r["rss_mb"] for r in plain]),
    }
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "rounds": {"plain": len(plain), "traced": len(traced)},
        "threads": THREAD_ENV,
        "end_to_end": end_to_end,
        "wall_s": _median(walls),
        "round_walls_s": walls,
        "round_norm_walls_s": norm_walls,
        "setup_samples_s": setup,
        "op_kinds_s": kind_times,
        "ops_failed_share": len(failed) / len(ops),
        "counters": counters,
        "counters_repeat": all(r["counters"] == plain[0]["counters"] for r in rounds),
        "ops": [
            {"id": op["id"], "kind": op["kind"],
             "median_s": _median([r["ops"][i]["seconds"] for r in plain]),
             "ok": op["ok"], "known_defect": op["known_defect"],
             "detail": op["detail"], "sizes": op["sizes"], "counters": op["counters"]}
            for i, op in enumerate(ops)
        ],
        "unexpected_failures": sorted({f"{op['id']}: {op['detail']}" for op in unexpected}),
    }
    if trace:
        layer = {name: _median([r["trace"][name] for r in traced])
                 for name in traced[0]["trace"]}
        layer.update({name: counters[key] for name, key in COUNTERS.items()})
        layer.update({f"ops.{kind}": t for kind, t in kind_times.items()})
        traced_walls = [_norm_wall(r) for r in traced]
        layer["trace.overhead_share"] = _median(traced_walls) / _median(norm_walls) - 1
        record["per_layer"] = layer
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        metrics = {name: {"value": end_to_end[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {
        "record": record,
        "result": {"correct": not unexpected, "attempted": len(ops),
                   "failed": len(failed), "metrics": metrics},
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.build(workload, seed)
    rounds = run_rounds(ops, seconds, ("plain", "traced") if trace else ("plain",))
    samples = rounds + [spawn("setup", [])[0]
                        for _ in range(MIN_SETUP_SAMPLES - len(rounds))]
    setup = [r["setup_s"] * CAL_NOMINAL_S / r["calibration_s"] for r in samples]
    out = summarize(workload, seed, rounds, setup, trace)
    out["record"]["setup_raw_s"] = _median([r["setup_s"] for r in samples])
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    path = os.path.join(ROOT, ".bench_out", f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    return out


def print_table(workload: str, out: dict) -> None:
    rec = out["record"]
    rows = [(name, value, END_TO_END[name]) for name, value in rec["end_to_end"].items()]
    rows.append(("wall_s", rec["wall_s"], "s"))
    rows += [(name, value, "s") for name, value in rec["op_kinds_s"].items() if value]
    rows.append(("ops_failed_share", rec["ops_failed_share"], "ratio"))
    if "per_layer" in rec:
        rows += [(name, rec["per_layer"][name], unit) for name, unit in PER_LAYER.items()]
    for name, value, unit in rows:
        print(f"{workload:13} {name:30} {value:14.6g} {unit}")
    for op in rec["ops"]:
        status = "ok" if op["ok"] else ("known defect" if op["known_defect"] else "FAILED")
        print(f"{workload:13} op {op['id']:30} {op['median_s']:9.4f} s  {status}: {op['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fqtcount", "__init__.py")):
        print(f"no package source under {ROOT}/src", file=sys.stderr)
        return 1
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        try:
            out = run(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        print_table(name, out)
        if args.workload != "all":
            print(json.dumps({"record": out["record"]}))
            print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
