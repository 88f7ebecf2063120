"""End-to-end benchmark of the reproduction: one command, three workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cli_replay --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` makes the separate traced run of the workload
and prints its per-layer metrics instead.  A human summary comes first;
the last stdout line is the JSON result record.  See ``README.md`` in this
directory for the workloads, the metrics and how each is measured.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import harness
import wl_cli
import wl_service
import wl_sweep

WORKLOADS = ("cli_replay", "sweep_star", "service_burst")


def load_definition() -> dict:
    path = os.path.join(harness.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def run_timed(workload: str, seed: int, seconds: float, work: str,
              record: harness.Record) -> None:
    if workload == "cli_replay":
        wl_cli.run_timed(seed, seconds, work, record)
    elif workload == "service_burst":
        wl_service.run_timed(seed, seconds, work, record)
    else:
        wl_sweep.run_timed(seconds, work, record)
    attempted = max(1, record.attempted)
    record.add("success_rate", (attempted - record.failed) / attempted,
               "fraction")


def run_traced(workload: str, seed: int, work: str, record: harness.Record,
               per_layer: dict) -> None:
    start = time.monotonic()
    if workload == "cli_replay":
        layers = wl_cli.run_traced(seed, work, record)
        bypassed = wl_cli.BYPASSED
    elif workload == "service_burst":
        layers = wl_service.run_traced(seed, work, record)
        bypassed = wl_service.BYPASSED
    else:
        layers = wl_sweep.run_traced(work, record)
        bypassed = wl_sweep.BYPASSED
    for name, metric in per_layer.items():
        if name not in layers and name.startswith(bypassed):
            layers[name] = 0
        if name in layers:
            record.add(name, layers[name], metric["unit"])
    record.note(f"traced run took {time.monotonic() - start:.1f} s; layers "
                f"with prefixes {', '.join(bypassed)} are not reached by "
                f"this workload and read 0")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)
    try:
        harness.check_checkout()
        definition = load_definition()
    except (harness.BenchError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    per_layer = {metric["name"]: metric for metric in definition["per_layer"]}
    end_to_end = [metric["name"] for metric in definition["end_to_end"]]

    harness.compile_sources()
    work = harness.make_workdir()
    record = harness.Record(arguments.workload)
    try:
        if arguments.trace:
            run_traced(arguments.workload, arguments.seed, work, record,
                       per_layer)
            names = list(per_layer)
        else:
            run_timed(arguments.workload, arguments.seed, arguments.seconds,
                      work, record)
            names = end_to_end
        record.emit(names)
    except harness.BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    finally:
        harness.remove_workdir(work)
    return 0


if __name__ == "__main__":
    sys.exit(main())
