"""Multi-channel packet-level simulation of a :class:`ScenarioSpec`.

The paper's case study splits 1600 nodes over sixteen RF channels; the
channels do not interact (separate frequencies, one coordinator each), so a
full-network simulation is a set of independent single-channel
simulations.  :func:`simulate_network` builds the node population once and
describes every (channel, replication) pair as a
:class:`repro.mac.vectorized.ChannelLane` — the channel's nodes after link
adaptation, their resolved transmit levels, its sink tree and its
simulation seed — and hands the lanes to the selected kernel:

* ``"batched"`` runs every lane in one
  :class:`repro.mac.vectorized.BatchedChannelSimulator` call, which
  advances its lanes in lockstep numpy passes and splits them into
  contiguous chunks over forked processes, one per CPU the calling
  process owns; the executor argument is not used, since the kernel
  picks its own processes;
* ``"event"`` maps the picklable lanes through any
  :mod:`repro.runner.executor` strategy, one discrete-event simulation per
  lane, so ``--jobs N`` and serial runs produce identical rows.

Lane seeds are the per-channel children of the master seed (replication 0)
plus :func:`replication_seeds`-spawned children (replications 1+), so both
kernels draw the same variates row for row and adding replications never
perturbs existing ones.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.network.scenario import ChannelScenario
from repro.network.spec import (ScenarioSpec, TX_POLICY_ADAPTIVE,
                                adaptive_tx_levels)
from repro.obs.tracer import current_tracer
from repro.sim.random import spawn_seeds

#: Seed-stream label of the per-channel simulation seeds.
CHANNEL_SEED_STREAM = "network.simulate.channels"

#: Seed-stream label of the per-replication children of a channel seed.
REPLICATION_SEED_STREAM = "network.simulate.replications"


def replication_seeds(channel_seed: int, count: int) -> List[int]:
    """Per-replication simulation seeds of one channel.

    Replication 0 *is* the channel seed — a single-replication run draws
    exactly the variates it always has — and replications 1+ are
    :func:`repro.sim.random.spawn_seeds` children of it, so the list is
    prefix-stable: raising ``count`` extends it without perturbing earlier
    replications.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    if count == 1:
        return [channel_seed]
    return [channel_seed] + spawn_seeds(channel_seed,
                                        REPLICATION_SEED_STREAM, count - 1)


def _summary_row(channel: int, summary,
                 replication: Optional[int] = None) -> Dict[str, Any]:
    """The row dict every backend reports for one channel simulation."""
    row = {
        "channel": channel,
        "nodes": summary.node_count,
        "superframes": summary.superframes,
        "packets_attempted": summary.packets_attempted,
        "packets_delivered": summary.packets_delivered,
        "channel_access_failures": summary.channel_access_failures,
        "collisions": summary.collisions,
        "failure_probability": summary.failure_probability,
        "mean_power_uw": summary.mean_node_power_w * 1e6,
        "mean_delivery_delay_s": summary.mean_delivery_delay_s,
        "energy_by_phase_j": dict(summary.energy_by_phase_j),
    }
    if summary.by_depth is not None:
        # Conditional key: star rows (and their cache artifacts / exports)
        # stay byte-identical to the pre-routing stack.
        row["by_depth"] = {depth: dict(bucket)
                           for depth, bucket in summary.by_depth.items()}
    if replication is not None:
        row["replication"] = replication
    return row


def _overhead_bytes() -> int:
    from repro.mac.frames import total_packet_overhead_bytes
    return total_packet_overhead_bytes()


def simulate_network(spec: ScenarioSpec, superframes: Optional[int] = None,
                     seed: Optional[int] = 0, executor=None,
                     max_nodes_per_channel: Optional[int] = None,
                     backend: Optional[str] = None,
                     replications: int = 1) -> List[Dict[str, Any]]:
    """Simulate every channel of ``spec``, batched or on an executor.

    Parameters
    ----------
    spec:
        The workload description.
    superframes:
        Beacon intervals to simulate per channel (default: the spec's hint).
    seed:
        Master seed; node placement uses it directly and channel ``i``
        receives the ``i``-th child of
        ``spawn_seeds(seed, CHANNEL_SEED_STREAM, num_channels)``, so serial
        and parallel runs are bit-identical.  ``None`` draws one fresh
        unpredictable master seed up front — the run is not reproducible,
        but all channels still share a single node population.
    executor:
        A :mod:`repro.runner.executor` strategy for the ``"event"``
        backend's per-lane tasks; ``None`` runs serially.  Not used by
        the ``"batched"`` backend: its one kernel call advances every
        (channel, replication) lane and forks its own lane chunks over
        the CPUs this process owns, with the same rows on any CPU count.
    max_nodes_per_channel:
        Truncate each channel's population (scaled-down runs).
    backend:
        Override the spec's simulation backend (``"batched"`` or
        ``"event"``).
    replications:
        Monte-Carlo replications per channel.  Replication 0 uses the
        channel's historical seed (so ``replications=1`` reproduces every
        existing result bit-for-bit and adds no ``"replication"`` row key);
        further replications draw :func:`replication_seeds` children and
        tag every row with its replication index.

    Returns
    -------
    list of dict
        One summary dict per (channel, replication), channel-major, in
        channel then replication order.
    """
    backend = backend or spec.backend
    ChannelScenario.check_backend(backend)
    if seed is None:
        seed = int(np.random.SeedSequence().generate_state(1, np.uint64)[0])
    if superframes is None:
        superframes = spec.superframes_hint
    lanes, tags = _channel_lanes(spec, seed, max_nodes_per_channel,
                                 replications)
    if backend == "batched":
        from repro.mac.vectorized import BatchedChannelSimulator

        simulator = BatchedChannelSimulator(
            lanes, config=spec.superframe_config(),
            constants=spec.constants(), payload_bytes=spec.payload_bytes,
            csma_params=spec.csma_parameters(), traffic=spec.traffic)
        summaries = simulator.run(superframes=superframes)
    else:
        from repro.runner.executor import run_ordered

        summaries = run_ordered(
            executor, _simulate_event_lane,
            [(spec, superframes, channel, replication, lane)
             for (channel, replication), lane in zip(tags, lanes)])
    return [_summary_row(channel, summary, replication)
            for (channel, replication), summary in zip(tags, summaries)]


def _channel_scenario(spec: ScenarioSpec, nodes, seed: int,
                      tree) -> ChannelScenario:
    """One channel's simulation, configured from the spec."""
    return ChannelScenario(
        nodes=nodes,
        config=spec.superframe_config(),
        constants=spec.constants(),
        payload_bytes=spec.payload_bytes,
        seed=seed,
        csma_params=spec.csma_parameters(),
        default_tx_power_dbm=spec.tx_power_dbm,
        traffic=spec.traffic,
        tree=tree)


def _channel_lanes(spec: ScenarioSpec, seed: int,
                   max_nodes_per_channel: Optional[int],
                   replications: int):
    """The (channel, replication) lane grid of a network run.

    Returns ``(lanes, tags)`` where ``tags`` holds the matching
    ``(channel, replication-or-None)`` row labels.  Every lane of one
    channel shares the node population (after truncation and link
    adaptation) and the resolved transmit levels; only the lane seed
    varies.
    """
    from repro.mac.vectorized import ChannelLane

    scenario = spec.build_seeded(seed)
    channel_seeds = spawn_seeds(seed, CHANNEL_SEED_STREAM, len(spec.channels))
    lanes = []
    tags: List[Tuple[int, Optional[int]]] = []
    for channel, channel_seed in zip(spec.channels, channel_seeds):
        nodes = scenario.nodes_on_channel(channel)
        tree = scenario.sink_tree(channel)
        if max_nodes_per_channel is not None \
                and len(nodes) > max_nodes_per_channel:
            if tree is not None:
                raise ValueError("max_nodes cannot truncate a routed "
                                 "channel: the sink tree spans the full "
                                 "population")
            nodes = nodes[:max_nodes_per_channel]
        if spec.tx_policy == TX_POLICY_ADAPTIVE:
            frame_bytes = spec.payload_bytes + _overhead_bytes()
            levels = adaptive_tx_levels(
                [node.path_loss_db for node in nodes], frame_bytes,
                target_packet_error=spec.target_packet_error,
                error_model=scenario.error_model)
            for node, level in zip(nodes, levels):
                node.tx_power_dbm = level
        tx_levels = _channel_scenario(spec, nodes, channel_seed,
                                      tree).resolved_tx_levels_dbm()
        for replication, lane_seed in enumerate(
                replication_seeds(channel_seed, replications)):
            lanes.append(ChannelLane(nodes=nodes, tx_levels_dbm=tx_levels,
                                     seed=lane_seed, tree=tree))
            tags.append((channel,
                         replication if replications > 1 else None))
    return lanes, tags


def _simulate_event_lane(task):
    """Run one lane on the discrete-event kernel.

    ``task`` is ``(spec, superframes, channel, replication, lane)``.
    Module-level (and therefore picklable) so it can serve as the task
    function of a process-pool executor.
    """
    spec, superframes, channel, replication, lane = task
    with current_tracer().span(f"channel[{channel}]", kind="lane",
                               channel=channel, replication=replication):
        return _channel_scenario(spec, lane.nodes, lane.seed,
                                 lane.tree).run(superframes=superframes,
                                                backend="event")


def aggregate_channel_rows(rows: List[Dict[str, Any]]) -> Dict[str, Any]:
    """NaN-safe aggregation of per-channel summaries into network totals.

    Channels that delivered nothing report ``mean_delivery_delay_s`` of
    ``None``; the network mean skips them (weighting the rest by delivered
    packets) and is itself ``None`` when no channel delivered anything.

    Replication-tagged rows (``replications > 1`` runs) pool naturally:
    packet counts and failure probability sum over every (channel,
    replication) row and means weight every row alike, while ``nodes``
    counts each physical node once (replication 0 rows only — all
    replications of a channel share its population).
    """
    attempted = sum(row["packets_attempted"] for row in rows)
    delivered = sum(row["packets_delivered"] for row in rows)
    failures = sum(row["channel_access_failures"] for row in rows)
    collisions = sum(row["collisions"] for row in rows)
    node_count = sum(row["nodes"] for row in rows
                     if row.get("replication", 0) == 0)
    power = (float(np.average([row["mean_power_uw"] for row in rows],
                              weights=[row["nodes"] for row in rows]))
             if node_count else 0.0)
    delay_rows = [row for row in rows
                  if row["mean_delivery_delay_s"] is not None
                  and row["packets_delivered"] > 0]
    delay = None
    if delay_rows:
        delay = float(np.average(
            [row["mean_delivery_delay_s"] for row in delay_rows],
            weights=[row["packets_delivered"] for row in delay_rows]))
    energy: Dict[str, float] = {}
    for row in rows:
        for phase, value in row["energy_by_phase_j"].items():
            energy[phase] = energy.get(phase, 0.0) + value
    result = {
        "channels": len(rows),
        "nodes": node_count,
        "packets_attempted": attempted,
        "packets_delivered": delivered,
        "channel_access_failures": failures,
        "collisions": collisions,
        "failure_probability": (1.0 - delivered / attempted
                                if attempted else 0.0),
        "mean_power_uw": power,
        "mean_delivery_delay_s": delay,
        "energy_by_phase_j": energy,
    }
    by_depth = _merge_depth_breakdowns(rows)
    if by_depth is not None:
        result["by_depth"] = by_depth
    return result


def _merge_depth_breakdowns(
        rows: List[Dict[str, Any]]) -> Optional[Dict[int, Dict[str, Any]]]:
    """Network-wide per-hop-depth totals of routed rows (``None`` if none).

    Depth keys tolerate the string form JSON cache round-trips produce
    (:func:`repro.runner.drivers.jsonify` stringifies dict keys); the merge
    mirrors :func:`aggregate_channel_rows` — power weighted by nodes, delay
    by delivered packets, physical nodes counted on replication-0 rows only.
    """
    merged: Dict[int, Dict[str, float]] = {}
    for row in rows:
        for depth_key, bucket in (row.get("by_depth") or {}).items():
            depth = int(depth_key)
            entry = merged.setdefault(depth, {
                "nodes": 0, "packets_attempted": 0, "packets_delivered": 0,
                "_power_weighted": 0.0, "_power_weight": 0,
                "_delay_weighted": 0.0})
            if row.get("replication", 0) == 0:
                entry["nodes"] += bucket["nodes"]
            entry["packets_attempted"] += bucket["packets_attempted"]
            entry["packets_delivered"] += bucket["packets_delivered"]
            entry["_power_weighted"] += bucket["mean_power_uw"] \
                * bucket["nodes"]
            entry["_power_weight"] += bucket["nodes"]
            if bucket["mean_delivery_delay_s"] is not None:
                entry["_delay_weighted"] += bucket["mean_delivery_delay_s"] \
                    * bucket["packets_delivered"]
    if not merged:
        return None
    result: Dict[int, Dict[str, Any]] = {}
    for depth in sorted(merged):
        entry = merged[depth]
        delivered = entry["packets_delivered"]
        result[depth] = {
            "nodes": int(entry["nodes"]),
            "packets_attempted": int(entry["packets_attempted"]),
            "packets_delivered": int(delivered),
            "mean_power_uw":
                entry["_power_weighted"] / max(entry["_power_weight"], 1),
            "mean_delivery_delay_s":
                entry["_delay_weighted"] / delivered if delivered else None,
        }
    return result
