"""``python -m repro bench`` — regenerate or check the perf trajectory.

Regenerate the committed baselines (writes ``benchmarks/BENCH_*.json``)::

    python -m repro bench

CI smoke (scaled-down run, compared against the committed baselines with
the 2x tolerance, artifacts written elsewhere)::

    python -m repro bench --quick --out /tmp/bench --check

Exit status: 0 on success, 1 when ``--check`` finds a regressed speedup,
2 on bad arguments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.cases import BENCH_CASES, run_bench_case
from repro.bench.trajectory import (DEFAULT_TOLERANCE, bench_path,
                                    compare_records, read_record,
                                    write_record)

#: Default location of the committed baselines, relative to the cwd.
DEFAULT_BASELINE_DIR = "benchmarks"


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Add the ``bench`` options to the main CLI's ``bench`` parser."""
    parser.add_argument("cases", nargs="*", metavar="CASE",
                        help=f"cases to run (default: all of "
                             f"{', '.join(BENCH_CASES)})")
    parser.add_argument("--quick", action="store_true",
                        help="scaled-down CI-smoke variant (small "
                             "population, short horizon)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repetitions per kernel (median is "
                             "recorded; default 3)")
    parser.add_argument("--out", default=DEFAULT_BASELINE_DIR,
                        metavar="DIR",
                        help="directory for the BENCH_*.json records "
                             f"(default: {DEFAULT_BASELINE_DIR}/, i.e. the "
                             "committed baselines)")
    parser.add_argument("--baseline-dir", default=DEFAULT_BASELINE_DIR,
                        metavar="DIR",
                        help="committed baselines for --check "
                             f"(default: {DEFAULT_BASELINE_DIR}/)")
    parser.add_argument("--check", action="store_true",
                        help="compare the fresh speedups against the "
                             "committed baselines; exit 1 on a >"
                             f"{DEFAULT_TOLERANCE}x regression")
    parser.add_argument("--tolerance", type=float,
                        default=DEFAULT_TOLERANCE,
                        help="speedup regression tolerance for --check "
                             f"(default {DEFAULT_TOLERANCE})")
    parser.add_argument("--phases", action="store_true",
                        help="record a per-phase kernel breakdown (one "
                             "instrumented run each, via repro.obs) in the "
                             "record's optional 'phases' section")


def command_bench(arguments: argparse.Namespace) -> int:
    names = arguments.cases or list(BENCH_CASES)
    unknown = [name for name in names if name not in BENCH_CASES]
    if unknown:
        print(f"error: unknown bench case(s): {', '.join(unknown)}; "
              f"choose from {', '.join(BENCH_CASES)}", file=sys.stderr)
        return 2
    if arguments.repeats < 1:
        print("error: --repeats must be at least 1", file=sys.stderr)
        return 2

    problems = []
    for name in names:
        record = run_bench_case(name, quick=arguments.quick,
                                repeats=arguments.repeats,
                                phases=arguments.phases)
        path = write_record(record, bench_path(arguments.out, name,
                                               mode=record["mode"]))
        timing_bits = ", ".join(
            f"{kernel} {entry['median_s']:.3f}s"
            for kernel, entry in record["timings_s"].items())
        speedup_bits = ", ".join(f"{key} {value:.2f}x"
                                 for key, value in record["speedup"].items())
        print(f"{name} [{record['mode']}]: {timing_bits}")
        print(f"  speedups: {speedup_bits}")
        print(f"  wrote {path}")
        if arguments.check:
            baseline_path = bench_path(arguments.baseline_dir, name,
                                       mode=record["mode"])
            if not Path(baseline_path).exists():
                problems.append(f"{name}: no committed baseline at "
                                f"{baseline_path}")
                continue
            problems.extend(compare_records(
                record, read_record(baseline_path),
                tolerance=arguments.tolerance))

    if problems:
        for problem in problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        return 1
    if arguments.check:
        print(f"perf trajectory OK (tolerance {arguments.tolerance}x)")
    return 0
