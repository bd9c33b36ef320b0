"""Smoke test of the benchmark: every workload at its tiny size, untraced and traced.

Checks that each run exits cleanly with a correct result, that the result
carries exactly the metrics BENCHMARK.json names for its mode, each with
its unit, that ``layers.json`` maps every per-layer metric, and that the
traced and untraced runs report identical output-check values and sizes
(wrapping the package must not change its results).

Usage, from the root of a checkout: python3 perfbench/smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, trace: int) -> tuple:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    wanted = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    unmapped = {m["name"] for m in spec["per_layer"]} - set(layers["moves"])
    if unmapped:
        problems.append(f"layers.json maps no end-to-end metric for {sorted(unmapped)}")
    for workload in (w["name"] for w in spec["workloads"]):
        records = {}
        for trace in (0, 1):
            record, result = run(workload, trace)
            records[trace] = record
            tag = f"{workload} trace={trace}"
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{tag}: result not correct: {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect = {m["name"]: m["unit"] for m in wanted[trace]}
            if got != expect:
                problems.append(f"{tag}: metrics {got}, BENCHMARK.json {expect}")
        for key in ("checks", "sizes", "probe"):
            if records[0][key] != records[1][key]:
                problems.append(f"{workload}: traced {key} differ from untraced {key}")
        n_checks = len(records[0]["checks"])
        print(f"{workload}: {n_checks} check values, traced == untraced")
    for line in problems:
        print("FAIL", line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
