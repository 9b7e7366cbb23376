"""Checks of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest bench/tests
"""

import json
import os
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_outputs_are_byte_identical(workload):
    ops = workloads.build(workload, 3)
    plain, _ = run.spawn("plain", ops)
    traced, _ = run.spawn("traced", ops)
    assert [op["id"] for op in traced["ops"]] == [op["id"] for op in ops]
    for a, b in zip(plain["ops"], traced["ops"]):
        assert a["output_sha256"] == b["output_sha256"], a["id"]
        assert (a["ok"], a["known_defect"], a["detail"]) == (
            b["ok"], b["known_defect"], b["detail"]), a["id"]
    assert plain["counters"] == traced["counters"]
    assert traced["trace"]["cli.calls"] > 0


# (module, names) pairs whose bindings must call through the tracer
_BINDINGS = {
    "families": ["pi_chi2", "pi_q", "pi_K", "pi_arith", "psi_arith", "phi_m"],
    "asymptotics": ["e_n", "f_n", "psi_divisors", "phi_m", "psi_arith"],
    "constants": ["e_n", "f_n", "pi_chi2", "pi_q", "psi_arith", "phi_m"],
    "cli": ["estimate_coefficient", "estimator_for", "constant_Kq", "constant_Cam"],
    "verify": ["pi_arith", "progression_gap_squared"],
}

_PROBE = """
import json, sys
sys.path.insert(0, {src!r}); sys.path.insert(0, {bench!r})
import fqtcount, fqtcount.cli, tracer
t = tracer.Tracer()
t.install(fqtcount)
spans = set(t._wrappers.values())
bindings = {bindings!r}
missing = [f"{{m}}.{{n}}" for m, names in bindings.items() for n in names
           if getattr(sys.modules["fqtcount." + m], n) not in spans]
proxied = [sys.modules["fqtcount.cli"].families.count_table,
           sys.modules["fqtcount.verify"].asym.estimate_coefficient,
           sys.modules["fqtcount.universe"].ffield.poly_mul,
           fqtcount.count_landau_poly_in_q,
           fqtcount.primecounts.LPolynomial.check_rh,
           fqtcount.universe.Universe.extend_to]
missing += [f.__qualname__ for f in proxied if f not in spans]
own = fqtcount.ffield.poly_mod in spans
print(json.dumps({{"missing": missing, "own_module_wrapped": own}}))
"""


def test_tracer_wraps_every_caller_binding():
    code = _PROBE.format(src=os.path.join(ROOT, "src"), bench=BENCH_DIR,
                         bindings=_BINDINGS)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120)
    result = json.loads(out.stdout)
    assert result["missing"] == []
    # calls inside ffield stay unwrapped: they are the same layer
    assert result["own_module_wrapped"] is False


def test_benchmark_json_matches_the_metrics_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_seed_varies_inputs_not_work():
    for workload in workloads.WORKLOADS:
        a, b = workloads.build(workload, 1), workloads.build(workload, 1)
        assert a == b
        shapes = {tuple((op["id"], op["kind"]) for op in workloads.build(workload, s))
                  for s in range(50)}
        assert len(shapes) == 1
        inputs = {json.dumps(workloads.build(workload, s)) for s in range(50)}
        assert len(inputs) > 1
