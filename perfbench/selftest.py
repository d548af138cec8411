#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

From the repo root.  For every workload in BENCHMARK.json it makes a
seconds-long run (one set-up) and checks that:
  * the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, correct is true and attempted >= 1;
  * --trace 0 prints every end-to-end metric and --trace 1 every per-layer
    metric of BENCHMARK.json, each with its unit, and nothing else;
  * a second seed changes the query stream but not the metric set.
It also checks that in a directory holding only BENCHMARK.json and the
benchmark's files the command exits non-zero without printing a result.
Exits 0 when every check passes.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE = ["--seconds", "2", "--setups", "1"]


def run(workload, seed, trace, cwd=ROOT):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--trace", str(trace)] + SMOKE
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def result_of(done, label, failures):
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        failures.append(f"{label}: exit {done.returncode}\n{done.stderr[-2000:]}")
        return None, None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        failures.append(f"{label}: last line is not JSON: {lines[-1][:200]}")
        return None, None
    stream = next((l for l in lines if l.startswith("stream: ")), None)
    return result, stream


def check_result(result, expected, label, failures):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        failures.append(f"{label}: keys {sorted(result)}")
        return
    if result["correct"] is not True:
        failures.append(f"{label}: correct is {result['correct']}")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        failures.append(f"{label}: attempted {result['attempted']}")
    if not isinstance(result["failed"], int):
        failures.append(f"{label}: failed {result['failed']}")
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != want:
        failures.append(f"{label}: metrics/units differ: missing "
                        f"{sorted(set(want) - set(got))}, extra "
                        f"{sorted(set(got) - set(want))}, units "
                        f"{[k for k in want if k in got and got[k] != want[k]]}")
    for name, entry in result["metrics"].items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"{label}: {name} = {value!r}")


def main():
    failures = []
    for workload in (w["name"] for w in SPEC["workloads"]):
        first, stream1 = result_of(run(workload, 1, 0), f"{workload} seed 1",
                                   failures)
        second, stream2 = result_of(run(workload, 2, 0), f"{workload} seed 2",
                                    failures)
        traced, _ = result_of(run(workload, 1, 1), f"{workload} traced",
                              failures)
        for result, label in ((first, "seed 1"), (second, "seed 2")):
            if result:
                check_result(result, SPEC["end_to_end"],
                             f"{workload} {label}", failures)
        if traced:
            check_result(traced, SPEC["per_layer"], f"{workload} traced",
                         failures)
        if stream1 is None or stream1 == stream2:
            failures.append(f"{workload}: seeds 1 and 2 gave the same query "
                            f"stream ({stream1})")
        print(f"{workload}: {stream1} / {stream2}", flush=True)

    bare = ROOT / ".bench_build" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    done = run(SPEC["workloads"][0]["name"], 1, 0, cwd=bare)
    if done.returncode == 0 or done.stdout.strip():
        failures.append("bare directory: expected a non-zero exit and no "
                        f"result, got exit {done.returncode}")
    shutil.rmtree(bare, ignore_errors=True)

    for f in failures:
        print("FAIL:", f)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
