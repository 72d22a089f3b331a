#!/usr/bin/env python3
"""Self-test of the DAISY benchmark.

Run from the root of the repository:

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json, and for code_thrash (runnable by name,
not in BENCHMARK.json), it runs one smoke-sized pass, untraced and traced, and
checks that the run succeeds with no failed op and emits exactly the metrics
BENCHMARK.json lists, each with its unit. Then it corrupts one guest result
and checks that the op is counted as failed and the run exits non-zero.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def bench(binary, workload, trace, *extra):
    cmd = [binary, "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace), *extra]
    out = subprocess.run(cmd, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"{' '.join(cmd)}: no output\n{out.stderr}")
    return out.returncode, json.loads(lines[-1]), out.stderr


def main():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = run.build()
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for name in [w["name"] for w in spec["workloads"]] + ["code_thrash"]:
        for trace in (0, 1):
            code, res, err = bench(binary, name, trace)
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            where = f"{name} trace {trace}"
            if code != 0 or not res["correct"] or res["failed"] != 0:
                failures.append(f"{where}: exit {code}, result {res}\n{err}")
            if got != wanted[trace]:
                failures.append(f"{where}: metrics {got} != BENCHMARK.json {wanted[trace]}")
            print(f"{where}: {res['attempted']} ops, {res['failed']} failed, exit {code}")
    # Negative case: a corrupted guest result must count as a failed op.
    name = spec["workloads"][0]["name"]
    code, res, _ = bench(binary, name, 0, "--corrupt-op", "3")
    print(f"{name} with op 3 corrupted: {res['failed']} failed, exit {code}")
    if code == 0 or res["correct"] or res["failed"] != 1:
        failures.append(f"corrupted op not caught: exit {code}, result {res}")
    if failures:
        sys.exit("selftest FAILED:\n" + "\n".join(failures))
    print("selftest ok")


if __name__ == "__main__":
    main()
