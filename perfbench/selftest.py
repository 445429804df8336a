#!/usr/bin/env python3
"""Quick self-test of the benchmark: every workload at a tiny size.

Run from the repository root:

    python3 perfbench/selftest.py

For each workload, untraced and traced, it runs ``run.py --tiny`` for one
second and checks that the last line of the output is the result object,
that it prints every metric ``BENCHMARK.json`` names for that mode with its
unit, that every correctness check of the workload ran and passed, and that
no operation failed beyond the one known fault counted in every round.  Exits non-zero on the first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

CHECKS = {
    "sweep": [
        "all distances present",
        "rate_ps >= rate_no_ps from 1 km",
        "zero beyond the trace boundary",
        "non-increasing within 3 SE",
        "0 km: rate_ps == rate_no_ps",
        "0 km: E[I] within 4 SE",
        "2 km: positive",
    ],
    "quadrature": [
        "0 km: grid E[I] to 1e-9",
        "2 km: positive, below 0 km",
        "2 km: 32-node value within tolerance",
    ],
    "single-point": [
        "chi matches the Gram oracle to 1e-9",
        "MI matches the joint-sign entropy to 1e-12",
        "MI and chi in [0, 1]",
        "rate == MI - chi",
        "validate pipeline oracle: 1000/1000",
        "validate spectrum oracle: 1000/1000",
        "validate exit status 0",
    ],
}


# Operations that fail in every round because of a known fault, on inputs
# that do not depend on the seed: single_point_holevo's chi below 0 at 0 km.
FAILED_PER_ROUND = {"sweep": 0, "quadrature": 0, "single-point": 1}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    with open(HERE / "out" / f"{workload}-seed7-trace{trace}.result.json", encoding="utf-8") as handle:
        record = json.load(handle)
    return result, record


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result, record = run(workload, trace)
            label = f"{workload} trace={trace}"
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            expected = {m["name"]: m["unit"] for m in spec[section]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if printed != expected:
                missing = sorted(set(expected) - set(printed))
                extra = sorted(set(printed) - set(expected))
                wrong = sorted(k for k in set(expected) & set(printed) if expected[k] != printed[k])
                problems.append(f"{label}: missing {missing}, extra {extra}, wrong units {wrong}")
            if sorted(record["checks"]) != sorted(CHECKS[workload]):
                problems.append(f"{label}: checks run {sorted(record['checks'])}")
            failing = [k for k, ok in record["checks"].items() if not ok]
            if failing or not result["correct"]:
                problems.append(f"{label}: failing checks {failing}")
            if result["failed"] != FAILED_PER_ROUND[workload] * record["rounds"] \
                    or result["attempted"] < 1:
                problems.append(f"{label}: attempted {result['attempted']}, failed {result['failed']}")
            print(f"{label}: {len(printed)} metrics, {len(record['checks'])} checks, "
                  f"{result['attempted']} operations")
    for problem in problems:
        print("FAIL", problem)
    print("self-test", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
