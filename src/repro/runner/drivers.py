"""Adapters wiring every experiment driver into the engine's registry.

Each adapter translates between the engine's uniform contract — a resolved
parameter dict plus a :class:`repro.runner.registry.RunContext` in, a
JSON-serialisable payload with a ``"rows"`` list out — and one driver from
:mod:`repro.experiments`.  The payloads are what the result cache stores, so
everything returned here must survive a JSON round trip unchanged.

The contention-heavy experiments (``fig6_csma``, ``contention_table``) fan
their Monte-Carlo grid points out through the context's executor with
per-point seeds, so their rows are identical for serial and parallel runs.
The analytical experiments (fig7–fig9, case study, improvements) share one
cached contention characterisation per ``(num_windows, seed)`` — built in
parallel when an executor is available and persisted through the result
cache, which is what makes a warm second run near-instant.

Building the registry imports neither numpy nor the model: the schemas
take their choices from the leaf module :mod:`repro.constants`, and every
adapter imports its driver and model layers when it runs.  A cache hit
therefore loads only the schema, the key and the stored JSON.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Dict, List, Mapping

from repro.constants import (ROUTING_KINDS, SCENARIO_BACKENDS, TABLE_LOADS,
                             TABLE_SIZES, TOPOLOGY_KINDS,
                             TRAFFIC_MODEL_KINDS)
from repro.runner.cache import code_version
from repro.runner.params import ParamSpec
from repro.runner.registry import ExperimentRegistry, ExperimentSpec, RunContext

if TYPE_CHECKING:  # pragma: no cover - typing only (keeps the hit path light)
    from repro.analysis.report import ExperimentReport
    from repro.analysis.series import SeriesCollection
    from repro.contention.tables import ContentionTable
    from repro.core.energy_model import EnergyModel

#: Grid of the shared engine characterisation — the same axes
#: :func:`repro.experiments.common.fast_contention_table` uses, so the two
#: caching paths characterise identical (load, packet size) points.
ENGINE_TABLE_LOADS = TABLE_LOADS
ENGINE_TABLE_SIZES = TABLE_SIZES


# ---------------------------------------------------------------------------
# payload helpers
# ---------------------------------------------------------------------------

def jsonify(value: Any) -> Any:
    """Recursively coerce a payload to plain JSON types.

    Numpy scalars/arrays become Python numbers/lists, tuples become lists,
    and non-finite floats become ``None`` (JSON has no ``inf``/``nan``).
    """
    if isinstance(value, dict):
        return {str(key): jsonify(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonify(item) for item in value]
    if hasattr(value, "tolist"):  # numpy array or scalar
        return jsonify(value.tolist())
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    return str(value)


def report_payload(report: ExperimentReport) -> Dict[str, Any]:
    """Serialise an :class:`ExperimentReport` (one dict per comparison row)."""
    return jsonify({
        "experiment_id": report.experiment_id,
        "title": report.title,
        "all_within_tolerance": report.all_within_tolerance,
        "rows": [{
            "quantity": row.quantity,
            "paper_value": row.paper_value,
            "measured_value": row.measured_value,
            "relative_error": row.relative_error,
            "within_tolerance": row.within_tolerance,
            "note": row.note,
        } for row in report.rows],
        "notes": list(report.notes),
    })


def report_rows(report: ExperimentReport) -> List[Dict[str, Any]]:
    """The comparison rows of a report, as engine result rows."""
    return report_payload(report)["rows"]


def series_rows(collection: SeriesCollection) -> List[Dict[str, Any]]:
    """Flatten a :class:`SeriesCollection` into one row per (series, x)."""
    rows: List[Dict[str, Any]] = []
    for series in collection.series:
        for x, y in zip(series.x, series.y):
            rows.append({"series": series.label,
                         "x": float(x), "y": float(y)})
    return jsonify(rows)


# ---------------------------------------------------------------------------
# shared contention characterisation
# ---------------------------------------------------------------------------

def engine_contention_table(context: RunContext, num_windows: int = 15,
                            num_nodes: int = 100) -> ContentionTable:
    """The shared (load, packet size) characterisation, cached on disk.

    Built with per-point seeds through the context's executor, so the table
    is identical for serial and parallel runs; the JSON snapshot is stored in
    the result cache, making every later experiment that needs it (fig7–fig9,
    case study, improvements, validation) start from a warm table.
    """
    from repro.contention.tables import ContentionTable, build_contention_table
    params = {"loads": list(ENGINE_TABLE_LOADS),
              "packet_sizes": list(ENGINE_TABLE_SIZES),
              "num_windows": num_windows, "num_nodes": num_nodes}
    key = context.cache.key("contention_table", params, context.seed)
    cached = context.cache.load(key)
    if cached is not None:
        return ContentionTable.from_payload(cached["table"])
    table = build_contention_table(
        list(ENGINE_TABLE_LOADS), list(ENGINE_TABLE_SIZES),
        num_windows=num_windows, executor=context.executor,
        seed=context.seed, num_nodes=num_nodes)
    try:
        context.cache.store(key, {"experiment": "contention_table",
                                  "params": jsonify(params),
                                  "seed": context.seed,
                                  "code_version": code_version(),
                                  "table": jsonify(table.to_payload())})
    except OSError:
        pass  # unwritable cache: keep the freshly built table anyway
    return table


def engine_model(context: RunContext, num_windows: int = 15) -> EnergyModel:
    """The energy model the analytical experiments start from."""
    from repro.core.energy_model import EnergyModel
    return EnergyModel(
        contention_source=engine_contention_table(context,
                                                  num_windows=num_windows))


def _table_rows(table: ContentionTable) -> List[Dict[str, Any]]:
    return jsonify([{
        "load": stats.load,
        "packet_bytes": stats.packet_bytes,
        "t_cont_s": stats.mean_contention_time_s,
        "n_cca": stats.mean_cca_count,
        "pr_col": stats.collision_probability,
        "pr_cf": stats.channel_access_failure_probability,
        "samples": stats.samples,
    } for stats in table.grid_statistics()])


# ---------------------------------------------------------------------------
# adapters
# ---------------------------------------------------------------------------

def run_contention_table(params: Mapping[str, Any],
                         context: RunContext) -> Dict[str, Any]:
    """Characterise the full contention grid (the engine's shared table)."""
    table = engine_contention_table(context,
                                    num_windows=params["num_windows"],
                                    num_nodes=params["num_nodes"])
    return {"rows": _table_rows(table)}


def run_fig6(params: Mapping[str, Any], context: RunContext) -> Dict[str, Any]:
    """Figure 6: contention quantities vs load, one row per (payload, load).

    Every (payload, load) point is an independent Monte-Carlo task with its
    own spawned seed, fanned out through the context executor.
    """
    from repro.analysis.report import ExperimentReport
    from repro.contention.monte_carlo import characterize_grid
    from repro.mac.frames import total_packet_overhead_bytes
    loads = [float(load) for load in params["loads"]]
    payloads = [int(p) for p in params["payload_sizes"]]
    overhead = total_packet_overhead_bytes()
    points = [(load, payload + overhead)
              for payload in payloads for load in loads]
    stats = characterize_grid(points, num_windows=params["num_windows"],
                              num_nodes=params["num_nodes"],
                              seed=context.seed, executor=context.executor,
                              stream_name="fig6")

    grid = [(payload, load) for payload in payloads for load in loads]
    rows: List[Dict[str, Any]] = []
    for (payload, load), point in zip(grid, stats):
        rows.append({"payload_bytes": payload, "load": load,
                     "on_air_bytes": payload + overhead,
                     "t_cont_s": point.mean_contention_time_s,
                     "n_cca": point.mean_cca_count,
                     "pr_col": point.collision_probability,
                     "pr_cf": point.channel_access_failure_probability})

    report = ExperimentReport(
        experiment_id="EXP-F6",
        title="Slotted CSMA/CA behaviour vs load and packet size (Figure 6)")
    for payload in payloads:
        per_payload = [row for row in rows if row["payload_bytes"] == payload]
        low, high = per_payload[0], per_payload[-1]
        report.add(
            quantity=f"Pr_cf growth with load ({payload} B), high/low ratio",
            paper_value=None,
            measured_value=high["pr_cf"] / max(low["pr_cf"], 1e-9),
            note="must exceed 1: contention degrades with load")
        report.add(
            quantity=f"N_CCA at max load ({payload} B)",
            paper_value=None,
            measured_value=high["n_cca"],
            note="between 2 (always clear) and 6 (paper CSMA convention)")
    return {"rows": jsonify(rows), "report": report_payload(report)}


def run_fig3(params: Mapping[str, Any], context: RunContext) -> Dict[str, Any]:
    """Figure 3: CC2420 characterisation (pure table lookups, serial)."""
    from repro.experiments.fig3_radio import run_fig3_radio_characterization
    # Divide (don't multiply by 1e-6): 100.0 / 1e6 rounds to the exact
    # float of the paper's 100e-6 literal, keeping the default comparison
    # anchored on the stated 7.0 ratio.
    result = run_fig3_radio_characterization(
        power_goal_w=params["power_goal_uw"] / 1e6)
    return {"rows": report_rows(result.report),
            "report": report_payload(result.report)}


def run_fig4(params: Mapping[str, Any], context: RunContext) -> Dict[str, Any]:
    """Figure 4: BER curves and the equation (1) regression."""
    from repro.experiments.fig4_ber import run_fig4_ber
    result = run_fig4_ber(bench_bits_per_point=params["bench_bits_per_point"],
                          seed=context.seed)
    return {"rows": series_rows(result.curves),
            "report": report_payload(result.report),
            "fitted_coefficient": float(result.fitted_coefficient),
            "fitted_exponent": float(result.fitted_exponent)}


def run_fig7(params: Mapping[str, Any], context: RunContext) -> Dict[str, Any]:
    """Figure 7: optimal energy per bit vs path loss (per load)."""
    from repro.experiments.fig7_link import run_fig7_link_adaptation
    model = engine_model(context, num_windows=params["num_windows"])
    result = run_fig7_link_adaptation(
        model=model, loads=tuple(params["loads"]),
        payload_bytes=params["payload_bytes"],
        beacon_order=params["beacon_order"])
    return {"rows": series_rows(result.curves),
            "report": report_payload(result.report)}


def run_fig8(params: Mapping[str, Any], context: RunContext) -> Dict[str, Any]:
    """Figure 8: energy per bit vs payload size (per load)."""
    from repro.experiments.fig8_packet import run_fig8_packet_size
    model = engine_model(context, num_windows=params["num_windows"])
    result = run_fig8_packet_size(
        model=model, loads=tuple(params["loads"]),
        path_loss_db=params["path_loss_db"],
        beacon_order=params["beacon_order"])
    return {"rows": series_rows(result.curves),
            "report": report_payload(result.report)}


def run_fig9(params: Mapping[str, Any], context: RunContext) -> Dict[str, Any]:
    """Figure 9: case-study energy / time breakdowns."""
    from repro.experiments.fig9_breakdown import run_fig9_breakdown
    model = engine_model(context, num_windows=params["num_windows"])
    result = run_fig9_breakdown(
        model=model, path_loss_resolution=params["path_loss_resolution"])
    return {"rows": report_rows(result.report),
            "report": report_payload(result.report)}


def run_case_study(params: Mapping[str, Any],
                   context: RunContext) -> Dict[str, Any]:
    """Section 5 case study: the 211 µW / 1.45 s / 16 % headline numbers."""
    from repro.experiments.case_study import run_case_study as driver
    model = engine_model(context, num_windows=params["num_windows"])
    result = driver(model=model,
                    path_loss_resolution=params["path_loss_resolution"])
    return {"rows": report_rows(result.report),
            "report": report_payload(result.report),
            "average_power_uw": float(result.with_adaptation.average_power_w * 1e6)}


def run_improvements(params: Mapping[str, Any],
                     context: RunContext) -> Dict[str, Any]:
    """Section 6 improvement perspectives (−12 % transitions, −15 % RX)."""
    from repro.experiments.improvements import run_improvements as driver
    model = engine_model(context, num_windows=params["num_windows"])
    result = driver(model=model,
                    path_loss_resolution=params["path_loss_resolution"],
                    transition_factor=params["transition_factor"],
                    rx_scale=params["rx_scale"])
    return {"rows": report_rows(result.report),
            "report": report_payload(result.report)}


def run_case_study_full(params: Mapping[str, Any],
                        context: RunContext) -> Dict[str, Any]:
    """Section 5 case study simulated at full scale (batched backend).

    The default batched backend advances every (channel, replication) lane
    in one lockstep kernel call; the event backend fans the lanes out as
    independent tasks with their own spawned seeds through the context
    executor.  Per-channel summaries are aggregated NaN-safely
    (channels that delivered nothing are skipped in the delay mean instead
    of poisoning it).
    """
    from repro.experiments.case_study_full import run_full_case_study
    cap = params["nodes_per_channel_cap"]
    result = run_full_case_study(
        total_nodes=params["total_nodes"],
        num_channels=params["num_channels"],
        superframes=params["superframes"],
        beacon_order=params["beacon_order"],
        superframe_order=params["superframe_order"],
        payload_bytes=params["payload_bytes"],
        nodes_per_channel_cap=int(cap) if cap is not None else None,
        backend=params["backend"],
        battery_life_extension=params["battery_life_extension"],
        csma_convention=params["csma_convention"],
        tx_policy=params["tx_policy"],
        traffic_model=params["traffic_model"],
        traffic_rate_scale=params["traffic_rate_scale"],
        traffic_mix=params["traffic_mix"],
        topology=params["topology"],
        routing=params["routing"],
        max_hops=params["max_hops"],
        replications=params["replications"],
        seed=context.seed,
        executor=context.executor)
    return {"rows": jsonify(result.channel_rows),
            "aggregate": jsonify(result.aggregate),
            "report": report_payload(result.report)}


def run_model_vs_sim(params: Mapping[str, Any],
                     context: RunContext) -> Dict[str, Any]:
    """Cross-check: analytical model vs packet-level MAC simulation."""
    from repro.experiments.validation import run_model_vs_simulation
    model = engine_model(context, num_windows=params["num_windows"])
    result = run_model_vs_simulation(
        model=model, num_nodes=params["num_nodes"],
        beacon_order=params["beacon_order"],
        superframes=params["superframes"], seed=context.seed)
    simulation = result.simulation
    return {"rows": report_rows(result.report),
            "report": report_payload(result.report),
            "model_power_uw": float(result.model_power_w * 1e6),
            "simulated_power_uw": float(simulation.mean_node_power_w * 1e6),
            "simulated_failure_probability":
                float(simulation.failure_probability)}


# ---------------------------------------------------------------------------
# registry assembly
# ---------------------------------------------------------------------------

#: Row columns of experiments whose rows are report comparison rows.
REPORT_COLUMNS = ("quantity", "paper_value", "measured_value",
                  "relative_error", "within_tolerance", "note")


def _num_windows(default: int) -> ParamSpec:
    return ParamSpec("num_windows", "int", default, minimum=1, maximum=64,
                     doc="Monte-Carlo contention windows simulated per "
                         "grid point")


def _loads(default: List[float]) -> ParamSpec:
    return ParamSpec("loads", "list", default, element="float",
                     minimum=0.0, maximum=1.0,
                     doc="normalised offered loads evaluated")


def _beacon_order(default: int) -> ParamSpec:
    return ParamSpec("beacon_order", "int", default, minimum=0, maximum=14,
                     doc="IEEE 802.15.4 beacon order BO (inter-beacon "
                         "period 2^BO base superframes)")


def build_default_registry() -> ExperimentRegistry:
    """Register every paper experiment and return the populated registry.

    Every spec declares a *typed* parameter schema: overrides from any
    entry point (CLI ``--param``, sweep axes, :meth:`repro.api.Session.run`
    keywords) are validated and canonicalised against it before anything
    runs or touches the cache.
    """
    registry = ExperimentRegistry()
    registry.register(ExperimentSpec(
        name="contention_table", figure="Fig. 6 (grid)",
        title="Monte-Carlo contention characterisation over the full "
              "(load, packet size) grid",
        runner=run_contention_table,
        params=[
            _num_windows(15),
            ParamSpec("num_nodes", "int", 100, minimum=2,
                      doc="contending nodes sharing the channel"),
        ],
        output_names=("load", "packet_bytes", "t_cont_s", "n_cca",
                      "pr_col", "pr_cf", "samples"),
        expected_runtime_s=3.0, supports_jobs=True))
    registry.register(ExperimentSpec(
        name="fig3_radio", figure="Fig. 3",
        title="CC2420 state powers, transition times and energies",
        runner=run_fig3,
        params=[
            ParamSpec("power_goal_uw", "float", 100.0, minimum=1.0,
                      doc="energy-scavenging power budget the idle draw is "
                          "compared against [uW]"),
        ],
        output_names=REPORT_COLUMNS,
        expected_runtime_s=0.1))
    registry.register(ExperimentSpec(
        name="fig4_ber", figure="Fig. 4",
        title="Bit error rate vs received power and the eq. (1) regression",
        runner=run_fig4,
        params=[
            ParamSpec("bench_bits_per_point", "int", 60_000, minimum=1_000,
                      doc="bits pushed through the wired test bench per "
                          "receive-power point"),
        ],
        output_names=("series", "x", "y"),
        expected_runtime_s=5.0))
    registry.register(ExperimentSpec(
        name="fig6_csma", figure="Fig. 6",
        title="Slotted CSMA/CA contention quantities vs load and packet size",
        runner=run_fig6,
        params=[
            _loads([0.1, 0.2, 0.3, 0.42, 0.6, 0.8]),
            ParamSpec("payload_sizes", "list", [10, 20, 50, 100],
                      element="int", minimum=1, maximum=127,
                      doc="MAC payload sizes evaluated [bytes]"),
            _num_windows(12),
            ParamSpec("num_nodes", "int", 100, minimum=2,
                      doc="contending nodes sharing the channel"),
        ],
        output_names=("payload_bytes", "load", "on_air_bytes",
                      "t_cont_s", "n_cca", "pr_col", "pr_cf"),
        expected_runtime_s=2.0, supports_jobs=True))
    registry.register(ExperimentSpec(
        name="fig7_link", figure="Fig. 7",
        title="Link adaptation: optimal energy per bit vs path loss",
        runner=run_fig7,
        params=[
            _loads([0.2, 0.42, 0.6]),
            ParamSpec("payload_bytes", "int", 120, minimum=1, maximum=127,
                      doc="MAC payload per data packet [bytes]"),
            _beacon_order(6),
            _num_windows(15),
        ],
        output_names=("series", "x", "y"),
        expected_runtime_s=8.0, supports_jobs=True))
    registry.register(ExperimentSpec(
        name="fig8_packet", figure="Fig. 8",
        title="Energy per bit vs payload size",
        runner=run_fig8,
        params=[
            _loads([0.2, 0.42, 0.6]),
            ParamSpec("path_loss_db", "float", 75.0, minimum=0.0,
                      maximum=150.0,
                      doc="node-to-coordinator attenuation [dB]"),
            _beacon_order(6),
            _num_windows(15),
        ],
        output_names=("series", "x", "y"),
        expected_runtime_s=5.0, supports_jobs=True))
    registry.register(ExperimentSpec(
        name="fig9_breakdown", figure="Fig. 9",
        title="Energy per phase and time per state breakdowns",
        runner=run_fig9,
        params=[
            ParamSpec("path_loss_resolution", "int", 41, minimum=2,
                      doc="grid points of the path-loss expectation "
                          "integral"),
            _num_windows(15),
        ],
        output_names=REPORT_COLUMNS,
        expected_runtime_s=6.0, supports_jobs=True))
    registry.register(ExperimentSpec(
        name="case_study", figure="Section 5",
        title="Dense-network case study headline numbers",
        runner=run_case_study,
        params=[
            ParamSpec("path_loss_resolution", "int", 41, minimum=2,
                      doc="grid points of the path-loss expectation "
                          "integral"),
            _num_windows(15),
        ],
        output_names=REPORT_COLUMNS,
        expected_runtime_s=8.0, supports_jobs=True))
    registry.register(ExperimentSpec(
        name="improvements", figure="Section 6",
        title="Improvement perspectives: faster transitions, scalable receiver",
        runner=run_improvements,
        params=[
            ParamSpec("path_loss_resolution", "int", 31, minimum=2,
                      doc="grid points of the path-loss expectation "
                          "integral"),
            ParamSpec("transition_factor", "float", 0.5, minimum=0.0,
                      maximum=1.0,
                      doc="scale on every radio state-transition time"),
            ParamSpec("rx_scale", "float", 0.5, minimum=0.0, maximum=1.0,
                      doc="scale on the receive-state power draw"),
            _num_windows(15),
        ],
        output_names=REPORT_COLUMNS,
        expected_runtime_s=10.0, supports_jobs=True))
    registry.register(ExperimentSpec(
        name="case_study_full", figure="Section 5 (simulated)",
        title="Full-scale packet-level simulation of the dense-network "
              "case study (batched lockstep kernel)",
        runner=run_case_study_full,
        params=[
            ParamSpec("total_nodes", "int", 1600, minimum=1,
                      doc="sensor nodes in the network"),
            ParamSpec("num_channels", "int", None, minimum=1, maximum=16,
                      doc="FDMA cells (None: all 16 IEEE 802.15.4 "
                          "channels)"),
            ParamSpec("superframes", "int", 50, minimum=1,
                      doc="simulated horizon [superframes]"),
            _beacon_order(6),
            ParamSpec("superframe_order", "int", None, minimum=0, maximum=14,
                      doc="superframe order SO (None: SO = BO, no inactive "
                          "portion)"),
            ParamSpec("payload_bytes", "int", 120, minimum=1, maximum=127,
                      doc="MAC payload per data packet [bytes]"),
            ParamSpec("nodes_per_channel_cap", "int", None, minimum=1,
                      doc="cap on simulated nodes per channel (None: "
                          "uncapped)"),
            ParamSpec("backend", "str", "batched",
                      choices=SCENARIO_BACKENDS,
                      doc="simulation kernel: batched lockstep run of "
                          "every channel, or the discrete-event reference "
                          "(one task per channel, fanned out by --jobs)"),
            ParamSpec("replications", "int", 1, minimum=1,
                      doc="Monte-Carlo replications per channel "
                          "(replication 0 reuses the historical channel "
                          "seed)"),
            ParamSpec("battery_life_extension", "bool", False,
                      doc="IEEE 802.15.4 battery-life-extension CAP mode"),
            ParamSpec("csma_convention", "str", "paper",
                      choices=("paper", "standard"),
                      doc="CSMA give-up rule: paper (two BE increments) or "
                          "standard macMaxCSMABackoffs"),
            ParamSpec("tx_policy", "str", "adaptive",
                      choices=("adaptive", "fixed"),
                      doc="transmit power policy: channel inversion or "
                          "fixed 0 dBm"),
            ParamSpec("traffic_model", "str", "saturated",
                      choices=TRAFFIC_MODEL_KINDS,
                      doc="per-node packet process: saturated (paper's "
                          "one packet per superframe), periodic buffered "
                          "sensing, poisson, bursty alarms, or a mixed "
                          "population"),
            ParamSpec("traffic_rate_scale", "float", 1.0, minimum=0.01,
                      maximum=100.0,
                      doc="mean packet rate of the stochastic traffic "
                          "models relative to the paper's periodic "
                          "baseline (ignored by 'saturated')"),
            ParamSpec("traffic_mix", "float", 0.25, minimum=0.0, maximum=1.0,
                      doc="bursty-alarm node fraction of the 'mixed' "
                          "traffic population (the rest sense "
                          "periodically)"),
            ParamSpec("topology", "str", "star",
                      choices=TOPOLOGY_KINDS,
                      doc="per-channel node layout: the paper's star "
                          "(direct path-loss draw) or a geometric "
                          "placement (grid lattice, uniform disc, "
                          "clustered) whose losses derive from geometry"),
            ParamSpec("routing", "str", "gradient",
                      choices=ROUTING_KINDS,
                      doc="sink-tree discipline over a geometric "
                          "topology: gradient (min hops, then min "
                          "cumulative loss) or min_hop (seeded "
                          "tie-breaking)"),
            ParamSpec("max_hops", "int", 1, minimum=1, maximum=8,
                      doc="hop-depth cap of the routing tree (1: every "
                          "node on a direct sink link; needs a geometric "
                          "topology when above 1)"),
        ],
        output_names=("channel", "nodes", "packets_attempted",
                      "packets_delivered", "channel_access_failures",
                      "collisions", "failure_probability", "mean_power_uw",
                      "mean_delivery_delay_s", "energy_by_phase_j"),
        expected_runtime_s=20.0, supports_jobs=True))
    registry.register(ExperimentSpec(
        name="model_vs_sim", figure="Section 4 (validation)",
        title="Analytical model vs packet-level MAC simulation",
        runner=run_model_vs_sim,
        params=[
            ParamSpec("num_nodes", "int", 12, minimum=2,
                      doc="nodes in the simulated star network"),
            _beacon_order(3),
            ParamSpec("superframes", "int", 8, minimum=1,
                      doc="simulated horizon [superframes]"),
            _num_windows(15),
        ],
        output_names=REPORT_COLUMNS,
        expected_runtime_s=15.0, supports_jobs=True))
    return registry
