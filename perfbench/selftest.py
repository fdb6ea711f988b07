#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload it checks that an untraced run prints every end-to-end
metric of BENCHMARK.json with its unit, that a traced run prints every
per-layer metric with its unit, that the same seed gives the same simulated
results and another seed different ones, and that an infeasible placement fed
to the check path is counted in `failed` / `failed_op_ratio` and fails the
run. Exits 0 when every check passes.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["dense-ingest", "sparse-place", "serve-churn"]
SIMULATED = ["energy_kwh", "mean_active_servers", "migrations"]


def run(workload, seed, trace, *extra):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--toy", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise AssertionError(f"{cmd}: no output\n{proc.stderr}")
    return proc.returncode, json.loads(lines[-1])


def check_shape(result, expected, label):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    metrics = result["metrics"]
    names = [m["name"] for m in expected]
    assert list(metrics) == names, f"{label}: {list(metrics)} != {names}"
    for m in expected:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], f"{label}: {m['name']} unit"
        assert math.isfinite(got["value"]), f"{label}: {m['name']} value"


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert [w["name"] for w in spec["workloads"]] == WORKLOADS
    failures = 0
    for workload in WORKLOADS:
        checks = []
        code, plain = run(workload, 1, 0)
        check_shape(plain, spec["end_to_end"], f"{workload} trace 0")
        checks.append(("untraced run passes", code == 0 and plain["correct"]
                       and plain["failed"] == 0))
        checks.append(("end-to-end metrics are non-zero", all(
            v["value"] > 0 for v in plain["metrics"].values())))

        code, traced = run(workload, 1, 1)
        check_shape(traced, spec["per_layer"], f"{workload} trace 1")
        layers = traced["metrics"]
        checks.append(("traced run passes", code == 0 and traced["correct"]
                       and layers["failed_op_ratio"]["value"] == 0
                       and layers["obs.dropped_events"]["value"] == 0))

        _, again = run(workload, 1, 0)
        _, other = run(workload, 2, 0)
        same = [plain["metrics"][k]["value"] == again["metrics"][k]["value"]
                for k in SIMULATED]
        checks.append(("same seed, same simulated results", all(same)))
        checks.append(("other seed, other inputs", any(
            plain["metrics"][k]["value"] != other["metrics"][k]["value"]
            for k in SIMULATED)))

        code, bad = run(workload, 1, 1, "--inject-infeasible")
        check_shape(bad, spec["per_layer"], f"{workload} injected")
        checks.append(("infeasible placement is counted", code != 0
                       and not bad["correct"] and bad["failed"] >= 1
                       and bad["metrics"]["failed_op_ratio"]["value"] > 0))

        for name, ok in checks:
            print(f"{'ok  ' if ok else 'FAIL'} {workload}: {name}")
            failures += 0 if ok else 1
    print("selftest:", "passed" if failures == 0 else f"{failures} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
