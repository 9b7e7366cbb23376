"""The benchmark worker runs against the package as it stands.

bench/worker.py reads package internals from outside: the universe and
residue-class caches, Universe.spf_gid, the class table's group order and
psi list, LPolynomial.check_rh and EstimatorSpec.exp_series.  A rename it
does not follow makes every benchmark run fail, so one plain round of the
oracle workload runs here.
"""

import json
import os
import subprocess
import sys
import time

import fqtcount

SRC = os.path.dirname(os.path.dirname(os.path.abspath(fqtcount.__file__)))
ROOT = os.path.dirname(SRC)
BENCH = os.path.join(ROOT, "bench")


def test_worker_runs_the_oracle_workload():
    sys.path.insert(0, BENCH)
    try:
        import workloads
    finally:
        sys.path.remove(BENCH)
    ops = workloads.build("oracle", 1)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), ROOT, repr(time.monotonic()),
         "plain"],
        input=json.dumps(ops), capture_output=True, text=True, env=env, cwd=ROOT,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert [op["id"] for op in result["ops"]] == [op["id"] for op in ops]
    for op in result["ops"]:
        assert op["ok"], (op["id"], op["detail"])
    counters = result["counters"]
    for name in ("polys_sieved", "group_order", "arith_max_degree", "rh_checks",
                 "eval_terms"):
        assert isinstance(counters[name], int) and counters[name] > 0, (name, counters)
