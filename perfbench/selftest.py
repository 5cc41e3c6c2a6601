#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny scale.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json is well formed, that the harness knows exactly
the workloads BENCHMARK.json names, and, for every workload, that a tiny
run with --trace 0 and with --trace 1 exits 0, prints the result schema
with exactly the metric names and units of BENCHMARK.json, and that every
query it ran returned the single-machine oracle's count. Exits 1 on the
first failure.
"""

import json
import math
import os
import subprocess
import sys

sys.dont_write_bytecode = True
import run  # noqa: E402

SPEC_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
FINGERPRINT_KEYS = {
    "revision", "nproc", "transport", "driver", "machines", "workers", "workload", "dataset",
    "scale", "dataset_seed", "seed", "budget_bytes", "admission_bytes",
    "max_concurrent_queries", "clients", "mix", "mode", "trace", "samples",
}


def fail(message):
    sys.exit(f"selftest: FAIL: {message}")


def check_spec(spec):
    if set(spec) != SPEC_KEYS:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    for metric in spec["end_to_end"]:
        if set(metric) != {"name", "unit", "better", "bound"} or not 0 < metric["bound"] <= 0.25:
            fail(f"bad end_to_end entry {metric}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" for m in spec["end_to_end"]):
        fail("no setup_s metric")
    for metric in spec["per_layer"]:
        if set(metric) != {"name", "unit", "better"}:
            fail(f"bad per_layer entry {metric}")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    if len(names) != len(set(names)):
        fail("a name is used twice")


def check_run(workload, trace, expected):
    command = [
        sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
        "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny",
    ]
    done = subprocess.run(command, cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        fail(f"{workload} --trace {trace} exited {done.returncode}: {done.stderr[-2000:]}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    fingerprint = json.loads(lines[-2])["fingerprint"]
    if set(result) != RESULT_KEYS:
        fail(f"{workload}: result keys {sorted(result)}")
    if set(fingerprint) != FINGERPRINT_KEYS or fingerprint["workload"] != workload:
        fail(f"{workload}: fingerprint {fingerprint}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload}: counts differ from the oracle: {result}")
    units = {name: value["unit"] for name, value in result["metrics"].items()}
    if units != expected:
        fail(f"{workload} --trace {trace}: metrics {units}, expected {expected}")
    for name, value in result["metrics"].items():
        number = value["value"]
        if not isinstance(number, (int, float)) or not math.isfinite(number):
            fail(f"{workload}: {name} = {number!r}")
        if trace == 0 and number <= 0:
            fail(f"{workload}: end-to-end metric {name} is {number}")
    print(f"selftest: ok {workload} --trace {trace} ({result['attempted']} queries)")


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    check_spec(spec)
    run.build(run.target_dir())
    harness = os.path.join(run.target_dir(), "release", "perfbench")
    listed = json.loads(subprocess.run([harness, "--list"], capture_output=True, text=True).stdout)
    if listed != [w["name"] for w in spec["workloads"]]:
        fail(f"harness workloads {listed} differ from BENCHMARK.json")
    unknown = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "no-such-workload",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True,
    )
    if unknown.returncode == 0 or unknown.stdout.strip():
        fail("an unknown workload did not fail")
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in listed:
        check_run(workload, 0, end_to_end)
        check_run(workload, 1, per_layer)
    print("selftest: PASS")


if __name__ == "__main__":
    main()
