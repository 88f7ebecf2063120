"""``sweep_star``: the registered ``case_study_power_grid`` sweep, serial,
on an empty cache.

Closed loop, one client.  Each sweep runs in a fresh process
(``child_sweep.py``) on a fresh cache, as a user's ``sweep run`` would;
the timed loop runs ``--seconds`` worth of sweeps.  Set-up is a sweep
process's interpreter start plus its imports, taken from every sweep
process and from ``SETUP_REPEATS`` processes that only start, spread
between the sweeps; an op is one sweep point, timed through the driver's
``on_point`` hook.  The sweep is a registered spec, so the workload seed
changes nothing in it.
"""

from __future__ import annotations

import os
import sys
from typing import Dict, List

import harness

TRACED_PASSES = 2
#: Start-only processes per run, so ``setup_s`` is a median of enough
#: samples to be steady.
SETUP_REPEATS = 7
#: Wall of one sweep process on a 2-core x86 box.
NOMINAL_SWEEP_S = 6.5
#: Per-layer metric prefixes this workload never reaches (reported as 0).
#: Start-up is the CLI's (``cli_replay`` measures it); a sweep's own
#: interpreter and import time is its ``setup_s``.
BYPASSED = ("service.", "lock.", "startup.", "cli.", "cache.code_version")


def sweep_child(mode: str, work: str, index: int):
    """One sweep process; the first of each mode also makes the reference
    comparison."""
    cache = os.path.join(work, f"sweep-cache-{mode}-{index}")
    result = harness.run_child(
        [sys.executable, os.path.join(harness.BENCH_DIR, "child_sweep.py"),
         mode, cache, "1" if index == 0 else "0"],
        harness.child_env(cache), work)
    if result.returncode != 0:
        raise harness.BenchError(
            f"sweep process failed (exit {result.returncode}): "
            + result.stderr.decode(errors="replace")[-800:])
    return result, harness.last_json_line(result.stdout)


def check_sweep(report: dict, record: harness.Record, label: str) -> None:
    """Every point is an op; bad points, a point served from the (empty)
    cache and a failed reference comparison count as failed ops."""
    bad = set(report["bad_points"])
    for point in range(report["points"]):
        record.op(point not in bad, f"{label}: point {point} has "
                                    f"missing or out-of-range metrics")
    if report["computed"] != report["points"]:
        record.fail(f"{label}: {report['points'] - report['computed']} "
                    f"points served from an empty cache")
    if report["reference"]:
        record.fail(f"{label}: {report['reference']}")


def run_timed(seconds: float, work: str,
              record: harness.Record) -> None:
    setups: List[float] = []
    latencies: List[float] = []
    sweep_s = 0.0
    points = 0
    peak_rss = 0.0
    sweeps = harness.passes_for(seconds, NOMINAL_SWEEP_S)
    for index in range(sweeps):
        result, report = sweep_child("timed", work, index)
        check_sweep(report, record, f"sweep {index}")
        setups.append(report["ready"] - result.start_monotonic)
        latencies.extend(report["latencies"])
        sweep_s += report["sweep_s"]
        points += report["points"]
        peak_rss = max(peak_rss, result.peak_rss_mb)
        for _ in range(harness.samples_after(index, sweeps, SETUP_REPEATS)):
            result, report = sweep_child("ready", work, len(setups))
            setups.append(report["ready"] - result.start_monotonic)

    tail = harness.tail(latencies)
    record.add("setup_s", harness.median(setups), "s")
    record.add("ops_per_s", points / sweep_s, "ops/s")
    record.add("latency_p50_s", harness.median(latencies), "s")
    record.add("latency_tail_s", tail["value"], "s")
    record.add("peak_rss_mb", peak_rss, "MB")
    record.note(f"{sweeps} sweeps of {points // sweeps} points; "
                f"latency_tail_s is p{tail['percentile']:.1f} of "
                f"{tail['samples']} points; setup_s is the median "
                f"interpreter+import time of {len(setups)} processes")


def run_traced(work: str,
               record: harness.Record) -> Dict[str, float]:
    """One untraced sweep (the overhead baseline), then the traced sweep
    twice: its exact counts must repeat."""
    _, report = sweep_child("timed", work, 0)
    check_sweep(report, record, "untraced sweep")
    untraced_s = report["sweep_s"]

    passes = []
    for index in range(TRACED_PASSES):
        result, report = sweep_child("traced", work, index)
        check_sweep(report, record, f"traced sweep {index}")
        report["wall_s"] = result.wall_s
        passes.append(report)
    exact = ("kernel.cca", "kernel.attempts", "kernel.lanes",
             "kernel.rounds", "sweep.points_computed", "sweep.points_cached",
             "cache.hits", "cache.misses", "cache.stores")
    harness.check_exact([report["layers"] for report in passes], exact,
                        record, "traced sweeps")

    layers = dict(passes[-1]["layers"])
    for name in layers:
        if name not in exact:
            layers[name] = harness.median([report["layers"][name]
                                           for report in passes])
    traced_s = harness.median([report["sweep_s"] for report in passes])
    layers["obs.overhead_ratio"] = traced_s / untraced_s
    layers["obs.outside_span_share"] = harness.median(
        [1.0 - report["top_level_s"] / report["wall_s"]
         for report in passes])
    record.note(f"traced: {TRACED_PASSES} traced sweeps of "
                f"{passes[-1]['points']} points; per-layer times are "
                f"per point")
    return layers
