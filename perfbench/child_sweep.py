"""One sweep of ``sweep_star`` in a fresh process.

Timed mode runs the sweep through the sweep driver
(``repro.sweep.driver.run_sweep``, the call ``Session.sweep`` makes) with
its public ``on_point`` progress hook, so each point's latency is timed
without tracing.  Traced mode installs the harness timing wrappers and
runs ``Session(trace=...).sweep(spec)``, then reads the session tracer's
spans and counters.  Both modes check every point and can compare one
reference point with a direct ``Session.run``.  Prints one JSON record as
its last line.

Ready mode only starts: it prints the time its imports finished (the
set-up of a sweep process) and exits.

Usage: python perfbench/child_sweep.py timed|traced|ready CACHE_DIR CHECK

``CHECK`` is 1 to make the reference comparison (once per run is enough:
the sweep is deterministic), 0 to skip it.  With ``PERFBENCH_QUICK=1`` in
the environment the sweep uses its registered quick variant (the
self-test's minimal size).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import repro.api as api
from repro.sweep.driver import extract_point_metrics, run_sweep

READY = time.monotonic()

import layers  # noqa: E402  (after READY: not part of the program's set-up)

#: Axis values of the point compared with a direct ``Session.run`` (axes
#: the spec does not have are ignored).
REFERENCE = {"beacon_order": 6, "superframe_order": None}


def build_spec() -> api.SweepSpec:
    quick = os.environ.get("PERFBENCH_QUICK") == "1"
    return api.Session(cache=False).sweep_spec("case_study_power_grid",
                                               quick=quick)


def point_ok(row) -> bool:
    """A finished point carries finite, in-range headline metrics."""
    power = row.get("mean_power_uw")
    failure = row.get("failure_probability")
    return (isinstance(power, float) and math.isfinite(power) and power > 0
            and isinstance(failure, float) and 0.0 <= failure <= 1.0
            and row.get("packets_attempted", 0) > 0)


def reference_check(rows, spec) -> str:
    """Empty when the reference point equals a direct ``Session.run`` of
    the same parameters (and, for the full-scale star grid, when that run
    is inside the paper's 211 uW band)."""
    axis_values = {name: value for name, value in REFERENCE.items()
                   if name in spec.axes}
    matches = [row for row in rows
               if all(row.get(name) == value
                      for name, value in axis_values.items())]
    if len(matches) != 1:
        return f"reference point {axis_values} not found once in the sweep"
    run = api.Session(cache=False).run(
        spec.experiment, **{**spec.base_params, **axis_values})
    got = {key: value for key, value in matches[0].items()
           if key != "point" and key not in spec.axes}
    if got != extract_point_metrics(run.payload):
        return f"reference point {axis_values} differs from Session.run"
    if not spec.base_params:
        power = [row for row in run.report["rows"]
                 if row["quantity"] == "average node power [uW]"][0]
        if power["within_tolerance"] is not True:
            return (f"case_study_full power {power['measured_value']:.1f} "
                    f"uW is outside the paper's band")
    return ""


def summary(spec, result, check: bool) -> dict:
    return {"ready": READY, "points": len(result.points),
            "computed": result.computed_points,
            "bad_points": [row["point"] for row in result.rows
                           if not point_ok(row)],
            "reference": (reference_check(result.rows, spec)
                          if check else "")}


def timed(cache_dir: str, check: bool) -> dict:
    spec = build_spec()
    session = api.Session(cache_dir=cache_dir)
    latencies = []

    def on_point(index, row):
        now = time.monotonic()
        latencies.append(now - last[0])
        last[0] = now

    last = [time.monotonic()]
    result = run_sweep(spec, cache=session.cache, on_point=on_point)
    record = summary(spec, result, check)
    record.update(sweep_s=sum(latencies), latencies=latencies)
    return record


def traced(cache_dir: str, check: bool) -> dict:
    spec = build_spec()
    wrappers = layers.Wrappers().install()
    session = api.Session(cache_dir=cache_dir,
                          trace=os.path.join(cache_dir, "trace.json"))
    begin = time.monotonic()
    result = session.sweep(spec)
    wall = time.monotonic() - begin
    wrappers.uninstall()

    spans = session.tracer.export()["spans"]
    ops = layers.op_breakdown(spans, "task")
    values = layers.per_layer_from_ops(ops, wrappers.snapshot())
    sweep_span = sum(span["duration_s"] for span in spans
                     if span["kind"] == "sweep")
    task_total = sum(op["wall_s"] for op in ops)
    values["sweep.point_s"] = task_total / len(ops)
    values["sweep.dispatch_overhead_s"] = sweep_span - task_total
    counters = session.tracer.counters.as_dict()
    values["sweep.points_computed"] = counters.get("sweep.points.computed", 0)
    values["sweep.points_cached"] = counters.get("sweep.points.cached", 0)
    values["cache.hits"] = counters.get("cache.hit", 0)
    values["cache.misses"] = counters.get("cache.miss", 0)
    values["cache.stores"] = counters.get("cache.store", 0)
    record = summary(spec, result, check)
    record.update(sweep_s=wall, layers=values,
                  top_level_s=layers.top_level_span_seconds(spans))
    return record


def main(argv) -> int:
    mode, cache_dir, check = argv
    if mode == "ready":
        record = {"ready": READY}
    else:
        record = (timed if mode == "timed" else traced)(cache_dir,
                                                        check == "1")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
