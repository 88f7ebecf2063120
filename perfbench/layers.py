"""Per-layer measurement from outside the program, for traced runs.

Two sources, both public:

* timing wrappers the harness installs around public functions and
  methods of the network, cache, parameter and output layers — inclusive
  wall time per wrapped name, summed over threads;
* the ``repro.obs`` span tree and counters the program already records
  (engine run/driver spans, cache spans, kernel phase spans with their
  ``cca``/``attempts``/``lanes``/``rounds`` counters, sweep task spans).

Importing this module imports nothing of ``repro``; ``Wrappers.install``
does, so only the helper children that run the program install wrappers.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Mapping

#: (metric stem, module, attribute) the harness wraps.  A plain function
#: is replaced in every loaded module that bound it by name; a method is
#: replaced on each class of its module that defines it.  The CLI writes
#: JSON or CSV rows: both writers are the output layer.
WRAPPED_FUNCTIONS = (
    ("output.write", "repro.analysis.io", "rows_to_json_text"),
    ("output.write", "repro.analysis.io", "rows_to_csv_text"),
)
WRAPPED_METHODS = (
    ("network.nodes_on_channel", "repro.network.scenario",
     "nodes_on_channel"),
    ("params.resolve", "repro.runner.registry", "resolve_params"),
    ("cache.lookup", "repro.runner.cache", "load"),
    ("cache.store", "repro.runner.cache", "store"),
)
STEMS = tuple(dict.fromkeys(stem for stem, _, _ in
                            WRAPPED_FUNCTIONS + WRAPPED_METHODS))

KERNEL_PHASES = ("setup", "beacon_grid", "contention_merge",
                 "energy_ledger")


class Wrappers:
    """Inclusive timing of wrapped calls (outermost call per thread only,
    so a method that calls its overridden parent is counted once)."""

    def __init__(self):
        self.seconds: Dict[str, float] = defaultdict(float)
        self._lock = threading.Lock()
        self._depth = threading.local()
        self._restore: List[Any] = []

    def _wrap(self, stem: str, original: Callable) -> Callable:
        def timed(*args, **kwargs):
            depth = getattr(self._depth, stem, 0)
            if depth:
                return original(*args, **kwargs)
            setattr(self._depth, stem, 1)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                setattr(self._depth, stem, 0)
                with self._lock:
                    self.seconds[stem] += elapsed
        timed.__wrapped__ = original
        return timed

    def install(self) -> "Wrappers":
        import importlib
        for stem, module_name, attribute in WRAPPED_FUNCTIONS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            wrapper = self._wrap(stem, original)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if namespace is not None and \
                        namespace.get(attribute) is original:
                    self._restore.append((loaded, attribute, original))
                    setattr(loaded, attribute, wrapper)
        for stem, module_name, attribute in WRAPPED_METHODS:
            module = importlib.import_module(module_name)
            for value in list(vars(module).values()):
                if isinstance(value, type) and \
                        value.__module__ == module_name and \
                        attribute in vars(value):
                    original = vars(value)[attribute]
                    self._restore.append((value, attribute, original))
                    setattr(value, attribute, self._wrap(stem, original))
        return self

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._restore):
            setattr(owner, attribute, original)
        self._restore = []

    def snapshot(self) -> Dict[str, float]:
        with self._lock:
            return dict(self.seconds)


# -- span trees -----------------------------------------------------------------------
def spans_from_artifact(payload: Mapping[str, Any]) -> List[Dict[str, Any]]:
    """Spans of a trace artifact with their durations merged back in."""
    durations = payload["timing"]["durations_s"]
    return [{"id": span["id"], "parent": span["parent"],
             "name": span["name"], "kind": span["kind"],
             "counters": span.get("counters", {}),
             "duration_s": float(durations[str(span["id"])])}
            for span in payload["spans"]]


def _children(spans: Iterable[Mapping[str, Any]]) -> Dict[Any, List[Any]]:
    children: Dict[Any, List[Any]] = defaultdict(list)
    for span in spans:
        children[span["parent"]].append(span)
    return children


def _subtree(span, children) -> List[Mapping[str, Any]]:
    out, stack = [], [span]
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(children.get(node["id"], ()))
    return out


def op_breakdown(spans: List[Mapping[str, Any]],
                 op_kind: str) -> List[Dict[str, float]]:
    """One record per op span (``kind == op_kind``): its wall time, the
    engine's run and driver spans, kernel phases and kernel counters
    summed over the op's subtree."""
    children = _children(spans)
    ops = []
    for span in spans:
        if span["kind"] != op_kind:
            continue
        record: Dict[str, float] = defaultdict(float)
        record["wall_s"] = span["duration_s"]
        for node in _subtree(span, children):
            kind, name = node["kind"], node["name"]
            counters = node.get("counters", {})
            if kind == "run":
                record["run_s"] += node["duration_s"]
            elif kind == "driver":
                record["driver_s"] += node["duration_s"]
            elif kind == "kernel":
                record["kernel_s"] += node["duration_s"]
                record["lanes"] += counters.get("lanes", 0)
                record["rounds"] += counters.get("rounds", 0)
            elif kind == "phase" and name in KERNEL_PHASES:
                record[f"kernel.{name}_s"] += node["duration_s"]
                record["cca"] += counters.get("cca", 0)
                record["attempts"] += counters.get("attempts", 0)
        ops.append(dict(record))
    return ops


def top_level_span_seconds(spans: List[Mapping[str, Any]]) -> float:
    """Wall covered by the root's direct children (the spans a whole
    process trace has; their union is the traced share of the wall)."""
    return sum(span["duration_s"] for span in spans
               if span["parent"] == 0)


def per_layer_from_ops(ops: List[Mapping[str, float]],
                       wrappers: Mapping[str, float]) -> Dict[str, float]:
    """Per-op layer times (pass totals divided by ops) plus the exact
    kernel work counts of the pass."""
    per_op = 1.0 / len(ops) if ops else 0.0

    def total(key: str) -> float:
        return sum(op.get(key, 0.0) for op in ops)

    merge_s = total("kernel.contention_merge_s")
    cca = int(total("cca"))
    wall = total("wall_s")
    values = {
        "engine.overhead_s": (total("run_s") - total("driver_s")) * per_op,
        "driver.self_s": (total("driver_s") - total("kernel_s")) * per_op,
        "kernel.cca": cca,
        "kernel.attempts": int(total("attempts")),
        "kernel.lanes": int(total("lanes")),
        "kernel.rounds": int(total("rounds")),
        "kernel.ns_per_cca": merge_s / cca * 1e9 if cca else 0.0,
        "kernel.share": total("kernel_s") / wall if wall else 0.0,
    }
    for phase in KERNEL_PHASES:
        values[f"kernel.{phase}_s"] = total(f"kernel.{phase}_s") * per_op
    for stem in STEMS:
        values[f"{stem}_s"] = wrappers.get(stem, 0.0) * per_op
    return values
