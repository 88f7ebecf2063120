"""Measure the baseline record ``perfbench/BASELINE.json``.

Runs every workload of ``BENCHMARK.json`` ``RUNS`` times untraced, each
run with its own seed, then once traced.  It prints each end-to-end
metric's median and quartile spread (as a share of the median, from
``statistics.quantiles(values, n=4)``) against a third of the metric's
bound, the steadiness target of every metric, ``setup_s`` included.  It
writes the medians, quartiles, per-layer values and a machine fingerprint
(nproc, Python, numpy).  Later changes size their gains against this
record.  Run from the root of a checkout::

    python3 perfbench/baseline.py
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time

import harness

RUNS = 10
FIRST_SEED = 1000
OUTPUT = os.path.join(harness.BENCH_DIR, "BASELINE.json")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [sys.executable, os.path.join(harness.BENCH_DIR, "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, cwd=harness.ROOT, check=True)
    return json.loads(completed.stdout.decode().splitlines()[-1])


def fingerprint() -> dict:
    numpy = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, check=True).stdout.decode().strip()
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "python": platform.python_version(), "numpy": numpy}


def main() -> int:
    harness.check_checkout()
    with open(os.path.join(harness.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        definition = json.load(handle)
    seconds = definition["run_seconds"]
    record = {"fingerprint": fingerprint(), "run_seconds": seconds,
              "runs": RUNS, "workloads": {}}
    steady = True
    for index, workload in enumerate(definition["workloads"]):
        name = workload["name"]
        seeds = [FIRST_SEED + 100 * index + run for run in range(RUNS)]
        start = time.monotonic()
        results = [bench(name, seed, seconds, 0) for seed in seeds]
        wall = (time.monotonic() - start) / len(seeds)
        entry = {"seeds": seeds, "correct": [r["correct"] for r in results],
                 "failed": [r["failed"] for r in results],
                 "attempted": [r["attempted"] for r in results],
                 "end_to_end": {}}
        print(f"{name}: {wall:.1f} s per run, correct "
              f"{sum(entry['correct'])}/{len(results)}")
        for metric in definition["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"]
                      for r in results]
            quartiles = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            spread = (quartiles[2] - quartiles[0]) / median if median else 0.0
            ok = spread < metric["bound"] / 3
            steady = steady and ok
            entry["end_to_end"][metric["name"]] = {
                "median": median, "q1": quartiles[0], "q3": quartiles[2],
                "spread": spread, "unit": metric["unit"]}
            print(f"  {metric['name']:16s} median {median:.6g} "
                  f"{metric['unit']}  spread {spread:.3f} "
                  f"(bound {metric['bound']})"
                  f"{'' if ok else '  <-- above a third of the bound'}")
        traced = bench(name, seeds[0], seconds, 1)
        entry["per_layer"] = {key: value["value"]
                              for key, value in traced["metrics"].items()}
        record["workloads"][name] = entry
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(f"wrote {OUTPUT}; "
          f"{'steady' if steady else 'NOT steady'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
