"""Batched lockstep fast path for the packet-level channel simulation.

The event-driven kernel (:mod:`repro.mac.device` on :mod:`repro.sim.engine`)
spends most of its time on generator resumes, event objects and per-charge
ledger records — fine for a 10-node validation channel, prohibitive for the
paper's full 100-nodes-per-channel case study.  This module simulates the
same uplink protocol with the device axis spanning **all channels × all
replications at once**:

* each independent single-channel simulation is a *lane*
  (:class:`ChannelLane`: nodes, resolved transmit levels, master seed); the
  batched kernel lays every lane's per-device MAC state (backoff exponent
  ``BE``, backoff stage ``NB``, contention window ``CW``, attempt counter)
  into flat lane-major arrays,
* each beacon interval is one *round*: the deterministic stretch from the
  pre-beacon wake-up through stagger and first backoff is advanced for every
  device of every lane in a handful of numpy passes, and only the
  interaction points — clear-channel-assessment samples — are replayed by a
  compact per-lane event merge carrying the device's flat batch index,
* the whole radio energy ledger is deferred to one numpy reduction at the
  end: each charge class (CCA, transmission, acknowledgement wait, ...) has
  a fixed energy/duration, so per-device counts and dwell-time sums
  reproduce the :class:`repro.radio.cc2420.EnergyLedger` totals exactly.

Equivalence contract
--------------------
For the same scenario and master seed each lane consumes the *same named
random streams in the same order* as the event-driven kernel
(``device[<id>]`` for stagger and backoff draws, ``coordinator`` for packet
corruption draws, ``traffic[<id>]`` for per-node packet arrivals, see
:class:`repro.sim.random.RandomStreams`) and applies the same timing rules
(CCA sampled at the end of its slot, traffic polled at the superframe
boundary, deferral checks against the contention access period, the
``run(until=horizon)`` event cut-off).  Delivery / failure / attempt counts
are therefore *identical* to the event kernel's — and identical whether a
lane runs alone or batched with fifteen others — and energies agree to
float-summation-order precision.  This is asserted by the cross-validation
matrix in ``tests/mac/test_vectorized.py``.

All streams of one call are seeded together:
:func:`repro.sim.random.pcg64_streams` runs numpy's ``SeedSequence``
hashing for every coordinator and device stream of the batch in one
vectorised pass, bit-identical to seeding them one by one and with no
state kept between calls.  A lane whose seed is ``None`` draws fresh
entropy once per call for all of its streams.

To batch the variate draws, the kernel replays each stream's raw
``uint64`` output (``BitGenerator.random_raw``) and applies numpy's own
bounded-integer / uniform transformations:

* ``Generator.integers(0, 2**be)`` is Lemire's method on the buffered
  32-bit path — the next ``uint32`` is the low half of a fresh ``uint64``
  (the high half is buffered for the following call) and the value is
  ``u32 >> (32 - be)``; a range of one consumes nothing,
* ``Generator.uniform(a, b)`` / ``Generator.random()`` consume one whole
  ``uint64`` (bypassing, not clearing, the 32-bit buffer) and map it to
  ``(u64 >> 11) * 2**-53``.

These identities and the vectorised seeding are checked against the
running numpy at first use (:func:`raw_streams_compatible`); if numpy ever
changes its seed hashing or bit-stream consumption the kernel refuses to
run rather than draw silently different variates, and the discrete-event
kernel (``backend="event"``) remains available.
:func:`_simulate_lane_reference`, the pre-batching per-lane scalar
implementation drawing from the generators directly, is kept as the
bit-equality oracle the test suite compares the batched kernel against;
no runtime path calls it.

Lane-parallel split
-------------------
Because lanes never interact, one call may split them into contiguous
chunks of about equal device count: chunk 0 runs in the calling process,
every other chunk in an ``os.fork()`` child that inherits the lanes
copy-on-write, seeds its own lanes' streams and pipes back its pickled
summaries.  The chunk count is capped by the lanes, the CPUs the process
owns (:func:`repro.sim.cpus.owned_cpus`: a pool or service worker owns
its share of them) and a minimum of work per chunk; a process running a
second Python thread never splits.

Known departure: within a lane, simultaneous events are ordered by device
index, while the event kernel orders them by scheduling sequence.  Exact
float-time ties between distinct devices require the continuous stagger
draw to be degenerate (``latest_start <= arrival + wake_lead``), which no
paper or test configuration produces; staggered starts make ties a
measure-zero event.

Scope: the uplink transaction cycle of the paper's activation policy
(Figure 5) with staggered transaction starts — the configuration
:class:`repro.network.scenario.ChannelScenario` uses.  Downlink (indirect
transmission) and GTS traffic are not modelled on the fast path; scenarios
needing them must use the event-driven backend.  Collisions cannot occur
under this policy (a transmission starts only when the second CCA found the
channel clear, which implies no frame is on the air), so the batched kernel
reports ``collisions == 0`` without tracking the medium per device pair.
"""

from __future__ import annotations

import os
import pickle
import signal
import threading
import traceback
import warnings
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate
from secrets import randbits
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mac.constants import MAC_2450MHZ, MacConstants
from repro.mac.csma import CsmaParameters
from repro.mac.device import (PHASE_ACK, PHASE_BEACON, PHASE_CONTENTION,
                              PHASE_SLEEP, PHASE_TRANSMIT)
from repro.mac.frames import AckFrame, BeaconFrame, DataFrame
from repro.mac.superframe import SuperframeConfig
from repro.obs.tracer import current_tracer
from repro.radio.power_profile import (CC2420_PROFILE, RadioPowerProfile,
                                       T_SHUTDOWN_TO_IDLE_POLICY_S)
from repro.radio.states import RadioState
from repro.sim.cpus import owned_cpus
from repro.sim.random import (RandomStreams, _name_to_entropy, _state_words,
                               pcg64_streams)

#: Event kinds of the reference implementation's compact queue.
_EVENT_CCA_SAMPLE = 0
_EVENT_TX_END = 1

#: ``2**-53`` — the constant numpy's ``next_double`` scales by.
_U53 = 1.0 / 9007199254740992.0

#: Raw ``uint64`` words buffered per device stream between refills.
_RAW_CHUNK = 192

#: Cached result of :func:`raw_streams_compatible`.
_raw_compat: Optional[bool] = None


@dataclass(frozen=True)
class ChannelLane:
    """One independent single-channel simulation of a batched run.

    A lane is what :class:`repro.network.scenario.ChannelScenario` hands
    the kernel for a single-channel run, and what
    :func:`repro.network.simulate.simulate_network` builds for every
    (channel, replication) pair: the channel's nodes, the *resolved* transmit
    level per node (link adaptation / default resolution happens in the
    caller) and the master seed of the lane's random streams.  Lanes of one
    batch share the superframe configuration, MAC constants, payload and
    traffic model — the paper's fan-out varies only channel membership and
    seed — but are otherwise fully independent: distinct channels, distinct
    Monte-Carlo replications of one channel, or any mix.

    ``tree`` is the lane's sink tree
    (:class:`repro.network.routing.SinkTree`) when the channel is routed:
    relays then offer forwarding-augmented traffic and the lane's summary
    carries a per-hop-depth breakdown.  ``None`` — the default — is the
    classic star, byte-identical to the pre-routing kernel.
    """

    nodes: Sequence
    tx_levels_dbm: Sequence[float]
    seed: int
    tree: Optional[object] = None


def _beacon_airtime_s(config: SuperframeConfig,
                      constants: MacConstants) -> float:
    beacon = BeaconFrame(source=0, sequence_number=1,
                         beacon_order=config.beacon_order,
                         superframe_order=config.superframe_order,
                         gts_descriptors=0,
                         pending_short_addresses=())
    return beacon.airtime_s(constants.timing.byte_period_s)


def _make_data_frame(payload_bytes: int) -> DataFrame:
    return DataFrame(source=1, destination=0, sequence_number=1,
                     ack_request=True, payload=bytes(payload_bytes))


# ---------------------------------------------------------------------------
# raw-stream compatibility probe
# ---------------------------------------------------------------------------

#: ``device[<id>]`` stream-name entropies keyed by node id — the name
#: hash is pure, and the same node ids recur in every lane and run.
_device_entropies: Dict[int, int] = {}


def _probe_matches(real: np.random.Generator,
                   raw: np.random.BitGenerator) -> bool:
    """Whether raw-stream replay reproduces ``real``'s variates exactly.

    ``real`` and ``raw`` must wrap identically seeded bit generators; the
    probe interleaves the three draw shapes the kernel emulates (bounded
    power-of-two integers on the buffered 32-bit path, uniform and unit
    doubles on the bypassing 64-bit path) and compares bit-for-bit.
    """
    buffer: List[int] = []
    pointer = 0
    half: Optional[int] = None

    def take_u64() -> int:
        nonlocal pointer
        if pointer >= len(buffer):
            buffer.extend(raw.random_raw(32).tolist())
        value = buffer[pointer]
        pointer += 1
        return value

    def take_u32() -> int:
        nonlocal half
        if half is not None:
            value, half = half, None
            return value
        word = take_u64()
        half = word >> 32
        return word & 0xFFFFFFFF

    for round_index in range(24):
        exponent = round_index % 9  # covers the consumption-free range of 1
        expected = 0 if exponent == 0 else take_u32() >> (32 - exponent)
        if int(real.integers(0, 1 << exponent)) != expected:
            return False
        low = -1.5 + 0.25 * round_index
        high = low + 0.5 + 0.125 * round_index
        expected_u = low + (high - low) * ((take_u64() >> 11) * _U53)
        if float(real.uniform(low, high)) != expected_u:
            return False
        if float(real.random()) != (take_u64() >> 11) * _U53:
            return False
    return True


#: ``(master seed, stream entropy)`` pairs of different word lengths —
#: zero, one, two and five-word masters; short and full 128-bit keys —
#: that :func:`raw_streams_compatible` seeds both ways.
_SEEDING_PROBE = ((0, 0), (987654321, 11), (0x1234_5678_9ABC, 2 ** 127 + 3),
                  (2 ** 150 + 17, 0xFFFF_FFFF), (2 ** 64 - 1, 2 ** 64))


def _seeding_matches() -> bool:
    """Whether :func:`repro.sim.random.pcg64_streams` seeds exactly like
    ``PCG64(SeedSequence(master, spawn_key=(entropy,)))``, words and
    first raw draws alike."""
    masters = [master for master, _ in _SEEDING_PROBE]
    entropies = [entropy for _, entropy in _SEEDING_PROBE]
    words = _state_words(masters, entropies)
    streams = pcg64_streams(masters, entropies)
    for index, (master, entropy) in enumerate(_SEEDING_PROBE):
        sequence = np.random.SeedSequence(entropy=master,
                                          spawn_key=(entropy,))
        if not np.array_equal(words[index],
                              sequence.generate_state(4, np.uint64)):
            return False
        if not np.array_equal(streams[index].random_raw(8),
                              np.random.PCG64(sequence).random_raw(8)):
            return False
    return True


def raw_streams_compatible() -> bool:
    """Whether this numpy's generators match the kernel's seeding and
    raw-stream replay.

    Evaluated once per process and cached; a mismatch (or any error while
    probing) makes every batched run raise instead of producing silently
    different variates.
    """
    global _raw_compat
    if _raw_compat is None:
        try:
            real = np.random.default_rng(
                np.random.SeedSequence(entropy=987654321, spawn_key=(11,)))
            raw = pcg64_streams([987654321], [11])[0]
            _raw_compat = _seeding_matches() and _probe_matches(real, raw)
        except Exception:  # pragma: no cover - depends on foreign numpy
            _raw_compat = False
    return _raw_compat


# ---------------------------------------------------------------------------
# batched kernel
# ---------------------------------------------------------------------------

class BatchedChannelSimulator:
    """Uplink simulation of many independent channel lanes in lockstep.

    Parameters
    ----------
    lanes:
        The :class:`ChannelLane` batch — typically one lane per (channel,
        replication) pair of a network fan-out.  Order is preserved in the
        result list.
    config / constants / payload_bytes / csma_params / profile / traffic:
        Shared by every lane, exactly as the corresponding
        :class:`repro.network.scenario.ChannelScenario` arguments.  The
        traffic model is instantiated per lane from the lane's own
        ``traffic[<id>]`` streams, preserving the equivalence contract.
    """

    def __init__(self, lanes: Sequence[ChannelLane], config: SuperframeConfig,
                 constants: MacConstants = MAC_2450MHZ,
                 payload_bytes: int = 120,
                 csma_params: Optional[CsmaParameters] = None,
                 profile: RadioPowerProfile = CC2420_PROFILE,
                 traffic=None):
        if not lanes:
            raise ValueError("A batched simulation needs at least one lane")
        for lane in lanes:
            if not lane.nodes:
                raise ValueError(
                    "A channel simulation needs at least one node")
            if len(lane.tx_levels_dbm) != len(lane.nodes):
                raise ValueError("One transmit level per node is required")
        if traffic is not None:
            traffic.require_payload(payload_bytes, "the slot-level kernel")
        self.lanes = [ChannelLane(nodes=list(lane.nodes),
                                  tx_levels_dbm=[float(level) for level
                                                 in lane.tx_levels_dbm],
                                  seed=lane.seed,
                                  tree=lane.tree)
                      for lane in lanes]
        self.config = config
        self.constants = constants
        self.payload_bytes = payload_bytes
        self.csma_params = csma_params or CsmaParameters.from_mac_constants(
            constants)
        self.profile = profile
        self.traffic = traffic

    def run(self, superframes: int = 10) -> List:
        """Simulate every lane for ``superframes`` beacon intervals.

        Returns one :class:`repro.network.scenario.SimulationSummary` per
        lane, in lane order — bit-for-bit what a single-lane run of each
        lane would produce.  That independence lets a large call split
        its lanes into contiguous chunks over forked processes, one per
        CPU this process owns (:func:`_chunk_count`); the summaries and
        the trace's counters are the same for any chunk count.

        Raises
        ------
        RuntimeError
            If this numpy's generators fail the raw-stream replay probe
            (:func:`raw_streams_compatible`); the discrete-event kernel
            does not depend on the replay and still runs.
        """
        if superframes < 1:
            raise ValueError("superframes must be at least 1")
        if not raw_streams_compatible():
            raise RuntimeError(
                f"numpy {np.__version__} changed how its generators consume "
                "raw bit streams, so the batched kernel's replay no longer "
                "matches Generator.integers/uniform/random; simulate with "
                'backend="event" instead')
        started = perf_counter()
        counts = [len(lane.nodes) for lane in self.lanes]
        chunks = _lane_chunks(counts, _chunk_count(len(counts), sum(counts),
                                                   superframes))
        if len(chunks) == 1:
            results = [self._run_batched(self.lanes, superframes)]
        else:
            results = _run_forked(self, chunks, superframes)
        _record_kernel_spans(results, perf_counter() - started)
        return [summary for summaries, _, _ in results
                for summary in summaries]

    # -- the batched fast path ------------------------------------------------
    def _run_batched(self, lanes: Sequence[ChannelLane],
                     superframes: int) -> Tuple[List, List[float],
                                                Dict[str, int]]:
        """Simulate ``lanes`` in lockstep in this process.

        Returns the lanes' summaries, the busy seconds of the four kernel
        phases (:data:`KERNEL_PHASES` order) and the work counters of
        :data:`KERNEL_COUNTERS`.  Phase time accumulates in plain floats
        — the round loop and the per-lane event merge allocate nothing
        for telemetry — and :meth:`run` turns it into spans.
        """
        from repro.network.routing import depth_breakdown, make_lane_sources
        from repro.network.scenario import SimulationSummary
        from repro.network.traffic import SaturatedTraffic

        t_setup = perf_counter()

        constants = self.constants
        params = self.csma_params
        profile = self.profile
        config = self.config

        # ---- timing constants (all in seconds, shared by every lane) -------
        slot = constants.unit_backoff_period_s
        byte_period = constants.timing.byte_period_s
        interval = config.beacon_interval_s
        sf_duration = config.superframe_duration_s
        beacon_air = _beacon_airtime_s(config, constants)
        frame = _make_data_frame(self.payload_bytes)
        frame_air = frame.airtime_s(byte_period)
        ack_air = AckFrame().airtime_s(byte_period)
        turnaround = constants.turnaround_time_s
        ack_wait = constants.ack_wait_duration_s
        residual = max(0.0, ack_wait - turnaround)
        wake_lead = T_SHUTDOWN_TO_IDLE_POLICY_S
        margin = 56 * slot + frame_air + ack_wait
        txn_tail = frame_air + turnaround + ack_air
        horizon = superframes * interval
        max_transmissions = constants.max_transmissions
        max_backoffs = params.max_csma_backoffs
        cw0 = params.contention_window
        be0 = params.initial_backoff_exponent()
        be_cap = params.max_be
        if params.battery_life_extension:
            be_cap = min(be_cap, params.battery_life_extension_max_be)

        # ---- flat lane-major device layout ---------------------------------
        lane_count = len(lanes)
        counts = [len(lane.nodes) for lane in lanes]
        n = sum(counts)
        bounds = np.zeros(lane_count + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        lane_of = np.repeat(np.arange(lane_count), counts)

        traffic_model = self.traffic
        if traffic_model is None:
            traffic_model = SaturatedTraffic(payload_bytes=self.payload_bytes)
        # Forwarding turns even saturated relays stateful (their own feed
        # is bottomless but descendants' replicas are not), so any lane
        # with relays drops the whole batch off the source-free fast path.
        forwarding = any(lane.tree is not None and lane.tree.relays
                         for lane in lanes)
        saturated = isinstance(traffic_model, SaturatedTraffic) \
            and not forwarding

        # ---- per-lane streams (identical names to the event kernel) --------
        # The bit generators behind ``RandomStreams(seed).get(name)`` of
        # every lane's coordinator and devices, seeded in one vectorised
        # pass without the Generator objects the raw replay never calls.
        # A lane without a seed draws fresh entropy once, for all of its
        # streams.
        entropy_cache = _device_entropies
        lane_masters = [randbits(128) if lane.seed is None else lane.seed
                        for lane in lanes]
        masters: List[int] = list(lane_masters)
        entropies: List[int] = [_name_to_entropy("coordinator")] * lane_count
        sources: List = []
        programmed_flat: List[float] = []
        pe_flat: List[float] = []
        ppdu_bytes = frame.ppdu_bytes
        for lane, master in zip(lanes, lane_masters):
            masters.extend([master] * len(lane.nodes))
            for node in lane.nodes:
                entropy = entropy_cache.get(node.node_id)
                if entropy is None:
                    entropy = _name_to_entropy(f"device[{node.node_id}]")
                    entropy_cache[node.node_id] = entropy
                entropies.append(entropy)
            if not saturated:
                sources.extend(make_lane_sources(
                    traffic_model,
                    [node.node_id for node in lane.nodes],
                    RandomStreams(master), tree=lane.tree,
                    hop_lag_s=interval))
            programmed = [profile.tx_level(level).level_dbm
                          for level in lane.tx_levels_dbm]
            programmed_flat.extend(programmed)
            pe_flat.extend(
                node.link().packet_error_probability(level, ppdu_bytes)
                for node, level in zip(lane.nodes, programmed))
        bit_generators = pcg64_streams(masters, entropies)
        coordinator_bgs = bit_generators[:lane_count]
        device_bgs = bit_generators[lane_count:]

        # ---- raw draw state -------------------------------------------------
        raws = np.zeros((n, _RAW_CHUNK), dtype=np.uint64)
        rptr = np.full(n, _RAW_CHUNK, dtype=np.int64)
        half_has = np.zeros(n, dtype=bool)
        half_val = np.zeros(n, dtype=np.uint64)
        u32_mask = np.uint64(0xFFFFFFFF)
        shift_32 = np.uint64(32)

        #: Lazily materialised Python-int mirror of each device's raw row,
        #: used by the merge loop's scalar draws; invalidated on refill.
        row_cache: List[Optional[List[int]]] = [None] * n

        def refill(needing: np.ndarray) -> None:
            for device in needing.tolist():
                raws[device] = device_bgs[device].random_raw(_RAW_CHUNK)
                row_cache[device] = None
            rptr[needing] = 0

        def take_u64_vec(ids: np.ndarray) -> np.ndarray:
            pointers = rptr[ids]
            exhausted = pointers == _RAW_CHUNK
            if exhausted.any():
                refill(ids[exhausted])
                pointers = rptr[ids]
            out = raws[ids, pointers]
            rptr[ids] = pointers + 1
            return out

        def take_u32_vec(ids: np.ndarray) -> np.ndarray:
            has = half_has[ids]
            out = np.empty(ids.size, dtype=np.uint64)
            held = ids[has]
            out[has] = half_val[held]
            half_has[held] = False
            fresh = ids[~has]
            if fresh.size:
                words = take_u64_vec(fresh)
                out[~has] = words & u32_mask
                half_val[fresh] = words >> shift_32
                half_has[fresh] = True
            return out

        #: Per-lane pre-transformed coordinator doubles, consumed LIFO from
        #: the tail of a reversed block (identical order to the stream).
        coordinator_pool: List[List[float]] = [[] for _ in range(lane_count)]

        # ---- deferred-ledger accumulators (phase A side, numpy) ------------
        sleep_t = np.zeros(n)
        wake_beacon = np.zeros(n, dtype=np.int64)
        idle_beacon_t = np.zeros(n)
        beacon_rx = np.zeros(n, dtype=np.int64)
        wake_cont = np.zeros(n, dtype=np.int64)
        idle_cont_t = np.zeros(n)
        cca_sched = np.zeros(n, dtype=np.int64)
        attempted = np.zeros(n, dtype=np.int64)

        # ---- event-loop accumulators (python lists, scalar writes) ---------
        # Transmission and acknowledgement counts are derived at ledger
        # time: every transmission is acknowledged or not (tx = acks +
        # residuals), every acknowledged packet is delivered unless the
        # horizon cut its tail (acks = delivered + ack_killed), and the
        # ack-turnaround idle time is per-transmission constant.
        cca_loop = [0] * n
        idle_cont_loop = [0.0] * n
        residual_rx = [0] * n
        failures = [0] * n
        delivered = [0] * n
        delay_sum = [0.0] * n  # delivered packets provide the count
        ack_killed: List[int] = []  # acked, then killed before delivery

        # ---- transient MAC state (BE/NB/CW/attempt live in merge-loop
        # locals and heap entries; only the timeline state is per-device) ----
        dev_now = np.zeros(n)
        dead = np.zeros(n, dtype=bool)
        busy_end = [0.0] * lane_count

        # ---- per-lane phase visibility -------------------------------------
        flag_beacon = np.zeros(lane_count, dtype=bool)
        flag_cont = np.zeros(lane_count, dtype=bool)
        flag_tx = np.zeros(lane_count, dtype=bool)
        flag_sleep = np.zeros(lane_count, dtype=bool)

        pe_list = pe_flat  # python floats for the scalar loop

        setup_s = perf_counter() - t_setup
        grid_s = merge_s = 0.0
        t_phase = 0.0
        rounds = 0

        for round_index in range(superframes):
            # Grid time spans from here to the phase-B marker; a round that
            # exits early (``continue``) leaves ``t_phase`` open and the
            # next round (or the post-loop close) absorbs the remainder.
            now_t = perf_counter()
            if t_phase:
                grid_s += now_t - t_phase
            t_phase = now_t
            rounds += 1
            beacon_at = round_index * interval
            cap_end = beacon_at + sf_duration
            latest = cap_end - margin
            ids = np.nonzero(~dead)[0]
            if ids.size == 0:  # pragma: no cover - kills only land in the
                break          # last round, so no earlier round starts empty

            # ---- phase A: wake, beacon, traffic, stagger, first backoff ----
            alive_lanes = lane_of[ids]
            if round_index > 0:
                flag_sleep[alive_lanes] = True  # idle->shutdown strobe
            now = dev_now[ids]
            wake = np.maximum(beacon_at - wake_lead, now)
            sleep_t[ids] += wake - now
            wake_beacon[ids] += 1
            idle_beacon_t[ids] += np.maximum(beacon_at - wake, 0.0)
            beacon_rx[ids] += 1
            flag_beacon[alive_lanes] = True
            arrival = np.maximum(wake, beacon_at) + beacon_air
            over = arrival > horizon
            if over.any():  # pragma: no cover - needs beacon_air >= interval
                dead[ids[over]] = True
                ids = ids[~over]
                arrival = arrival[~over]
                if ids.size == 0:
                    continue

            if saturated:
                ids2 = ids
                arrival2 = arrival
            else:
                has_packet = np.zeros(ids.size, dtype=bool)
                id_list = ids.tolist()
                arrival_list = arrival.tolist()
                for position, device in enumerate(id_list):
                    source = sources[device]
                    if source.poll(beacon_at):
                        source.drain_packet()
                        has_packet[position] = True
                    else:
                        dev_now[device] = arrival_list[position]
                ids2 = ids[has_packet]
                arrival2 = arrival[has_packet]
                if ids2.size == 0:
                    continue

            low = arrival2 + wake_lead
            stagger = low < latest
            start = arrival2.copy()
            staggered = ids2[stagger]
            if staggered.size:
                flag_cont[lane_of[staggered]] = True
                words = take_u64_vec(staggered)
                unit = (words >> np.uint64(11)).astype(np.float64) * _U53
                low_s = low[stagger]
                start_s = low_s + (latest - low_s) * unit
                start[stagger] = start_s
                stagger_sleep = start_s - arrival2[stagger] - wake_lead
                slept = stagger_sleep > 0
                slept_ids = staggered[slept]
                if slept_ids.size:
                    flag_sleep[lane_of[slept_ids]] = True
                    sleep_t[slept_ids] += stagger_sleep[slept]
                    # start < latest_start <= horizon, so the kernel's
                    # mid-stagger horizon cut cannot trigger here.
                    wake_cont[slept_ids] += 1
                idle_cont_t[staggered] += wake_lead
            attempted[ids2] += 1

            if be0 > 0:
                first_u32 = take_u32_vec(ids2)
                first_delay = (first_u32
                               >> np.uint64(32 - be0)).astype(np.int64)
            else:
                first_delay = np.zeros(ids2.size, dtype=np.int64)
            waited = first_delay > 0
            if waited.any():
                idle_cont_t[ids2[waited]] += first_delay[waited] * slot
                flag_cont[lane_of[ids2[waited]]] = True
            cca_start = start + first_delay * slot

            past_horizon = cca_start > horizon
            deferred = ~past_horizon & (cca_start >= cap_end)
            scheduled = ~past_horizon & ~deferred
            if past_horizon.any():
                dead[ids2[past_horizon]] = True
            if deferred.any():
                deferred_ids = ids2[deferred]
                dev_now[deferred_ids] = cca_start[deferred]
            event_devices = ids2[scheduled]
            if event_devices.size == 0:
                continue
            flag_cont[lane_of[event_devices]] = True
            cca_sched[event_devices] += 1
            event_times = cca_start[scheduled] + slot

            # ---- phase B: per-lane CCA/TX event merge ----------------------
            t_merge = perf_counter()
            grid_s += t_merge - t_phase
            t_phase = 0.0
            event_lanes = lane_of[event_devices]
            order = np.lexsort((event_times, event_lanes))
            static_times = event_times[order].tolist()
            static_devices = event_devices[order].tolist()
            lane_starts = np.searchsorted(event_lanes[order],
                                          np.arange(lane_count + 1))
            infinity = float("inf")
            # Terminal writes are batched: transaction endings and horizon
            # kills collect in python lists and land on the numpy arrays
            # once per round, after every lane's merge.
            end_dev: List[int] = []
            end_time: List[float] = []
            kill: List[int] = []
            # Python-list mirror of the whole device axis' draw state —
            # plain list indexing is several times cheaper than numpy
            # scalar indexing on this path; written back once per round so
            # the vectorized phase-A draws see the merged stream positions.
            lr = rptr.tolist()
            lh = half_has.tolist()
            lv = half_val.tolist()
            heap_push = heappush
            heap_pop = heappop
            for lane_index in range(lane_count):
                cursor = int(lane_starts[lane_index])
                stop = int(lane_starts[lane_index + 1])
                if cursor == stop:
                    continue
                heap: List[tuple] = []
                push_seq = 0
                busy_until = busy_end[lane_index]
                lane_transmitted = False
                coordinator_bg = coordinator_bgs[lane_index]
                pool = coordinator_pool[lane_index]
                killed = False
                next_static = static_times[cursor]
                # earliest heap entry's time, mirrored in a local so the
                # hot chain decision is two float compares
                heap_top = infinity
                while True:
                    # static events win ties: they were scheduled first
                    if heap_top < next_static:
                        time_now, _, device, be, nb, cw, att = heap_pop(heap)
                        heap_top = heap[0][0] if heap else infinity
                    elif cursor < stop:
                        # fresh contention attempt begins at its first CCA;
                        # its CSMA state lives in locals (and heap entries
                        # when the device escapes the inline chain)
                        time_now = next_static
                        device = static_devices[cursor]
                        cursor += 1
                        next_static = (static_times[cursor] if cursor < stop
                                       else infinity)
                        be = be0
                        nb = 0
                        cw = cw0
                        att = 0
                    else:
                        break
                    if time_now > horizon:
                        # the kernel cuts the whole queue at the horizon:
                        # every device still owning an event never resumes
                        kill.append(device)
                        kill.extend(static_devices[cursor:stop])
                        while heap:
                            kill.append(heap_pop(heap)[2])
                        break

                    # A device's next CCA sample usually precedes every
                    # other pending event (backoff slots are short against
                    # the contention spread), in which case nothing can
                    # change the channel in between and the sample is
                    # processed inline instead of through the heap.
                    while True:
                        if busy_until > time_now:  # CCA found channel busy
                            nb += 1
                            be += 1
                            if be > be_cap:
                                be = be_cap
                            cw = cw0
                            if nb > max_backoffs:
                                failures[device] += 1
                                end_dev.append(device)
                                end_time.append(time_now)
                                break
                            if be:
                                if lh[device]:
                                    lh[device] = False
                                    word32 = lv[device]
                                else:
                                    pointer = lr[device]
                                    if pointer == _RAW_CHUNK:
                                        fresh = device_bgs[device] \
                                            .random_raw(_RAW_CHUNK)
                                        raws[device] = fresh
                                        row = fresh.tolist()
                                        row_cache[device] = row
                                        pointer = 0
                                    else:
                                        row = row_cache[device]
                                        if row is None:
                                            row = raws[device].tolist()
                                            row_cache[device] = row
                                    word = row[pointer]
                                    lr[device] = pointer + 1
                                    lv[device] = word >> 32
                                    lh[device] = True
                                    word32 = word & 0xFFFFFFFF
                                step = (word32 >> (32 - be)) * slot
                            else:
                                step = 0.0
                            idle_cont_loop[device] += step
                            next_cca = time_now + step
                            if next_cca > horizon:
                                kill.append(device)
                                break
                            if next_cca >= cap_end:
                                end_dev.append(device)
                                end_time.append(next_cca)
                                break
                            cca_loop[device] += 1
                            sample_at = next_cca + slot
                            if sample_at < busy_until:
                                # the frame on the air outlives the new
                                # sample, so its outcome is already decided
                                # (busy) no matter which queued events run
                                # in between — no transmission can start
                                # before busy_until (it needs two clear
                                # CCAs), and other devices never touch this
                                # device's stream or counters
                                time_now = sample_at
                                continue
                        else:
                            # Clear CCA: burn down the remaining window.
                            # While the samples stay inline nothing can put
                            # a frame on the air (busy_until <= time_now),
                            # so the whole window resolves clear
                            # back-to-back without re-entering the chain.
                            cw -= 1
                            while cw > 0:  # next CCA of the window
                                if time_now >= cap_end:
                                    end_dev.append(device)
                                    end_time.append(time_now)
                                    cw = -1  # parked at the CAP edge
                                    break
                                cca_loop[device] += 1
                                sample_at = time_now + slot
                                if (sample_at < next_static
                                        and sample_at < heap_top):
                                    if sample_at > horizon:
                                        # earliest remaining event past the
                                        # horizon: the cut kills the queue
                                        kill.append(device)
                                        kill.extend(
                                            static_devices[cursor:stop])
                                        while heap:
                                            kill.append(heap_pop(heap)[2])
                                        killed = True
                                        cw = -1
                                        break
                                    time_now = sample_at
                                    cw -= 1
                                    continue
                                heap_push(heap,
                                          (sample_at, push_seq, device, be,
                                           nb, cw, att))
                                push_seq += 1
                                if sample_at < heap_top:
                                    heap_top = sample_at
                                cw = -1  # escaped to the heap
                                break
                            if cw:  # parked, killed or escaped
                                break
                            # channel clear through the window: transmit,
                            # unless the transaction no longer fits
                            if time_now + txn_tail > cap_end:
                                end_dev.append(device)
                                end_time.append(time_now)
                                break
                            lane_transmitted = True
                            busy_until = time_now + frame_air
                            # every transmission completes before the
                            # horizon (time_now + txn_tail <= cap_end
                            # <= horizon), so the acknowledgement is
                            # resolved at TX start
                            if not pool:
                                words = coordinator_bg.random_raw(512)
                                pool = ((words >> np.uint64(11))
                                        .astype(np.float64)
                                        * _U53).tolist()
                                pool.reverse()
                                coordinator_pool[lane_index] = pool
                            ack_resume = busy_until + turnaround
                            if pool.pop() >= pe_list[device]:  # acked
                                done = ack_resume + ack_air
                                # float-edge guard: the fit check above
                                # bounds done <= cap_end <= horizon up to
                                # rounding of the beacon grid
                                if done > horizon:  # pragma: no cover
                                    ack_killed.append(device)
                                    kill.append(device)
                                    break
                                delivered[device] += 1
                                delay_sum[device] += done - beacon_at
                                end_dev.append(device)
                                end_time.append(done)
                                break
                            residual_rx[device] += 1
                            retry_at = ack_resume + residual
                            if retry_at > horizon:
                                kill.append(device)
                                break
                            att += 1
                            if att >= max_transmissions:
                                end_dev.append(device)
                                end_time.append(retry_at)
                                break
                            be = be0
                            nb = 0
                            cw = cw0
                            if be0:
                                if lh[device]:
                                    lh[device] = False
                                    word32 = lv[device]
                                else:
                                    pointer = lr[device]
                                    if pointer == _RAW_CHUNK:
                                        fresh = device_bgs[device] \
                                            .random_raw(_RAW_CHUNK)
                                        raws[device] = fresh
                                        row = fresh.tolist()
                                        row_cache[device] = row
                                        pointer = 0
                                    else:
                                        row = row_cache[device]
                                        if row is None:
                                            row = raws[device].tolist()
                                            row_cache[device] = row
                                    word = row[pointer]
                                    lr[device] = pointer + 1
                                    lv[device] = word >> 32
                                    lh[device] = True
                                    word32 = word & 0xFFFFFFFF
                                step = (word32 >> (32 - be0)) * slot
                            else:
                                step = 0.0
                            idle_cont_loop[device] += step
                            next_cca = retry_at + step
                            if next_cca > horizon:
                                kill.append(device)
                                break
                            if next_cca >= cap_end:
                                end_dev.append(device)
                                end_time.append(next_cca)
                                break
                            cca_loop[device] += 1
                            sample_at = next_cca + slot

                        # continue inline only while this device's sample
                        # strictly precedes every other pending event —
                        # an equal-time event was queued earlier and the
                        # kernel orders ties by scheduling sequence
                        if sample_at < next_static and sample_at < heap_top:
                            if sample_at > horizon:
                                # earliest remaining event past the horizon:
                                # the kernel's cut kills the whole queue
                                kill.append(device)
                                kill.extend(static_devices[cursor:stop])
                                while heap:
                                    kill.append(heap_pop(heap)[2])
                                killed = True
                                break
                            time_now = sample_at
                            continue
                        heap_push(heap,
                                  (sample_at, push_seq, device, be, nb, cw,
                                   att))
                        push_seq += 1
                        if sample_at < heap_top:
                            heap_top = sample_at
                        break
                    if killed:
                        break
                busy_end[lane_index] = busy_until
                if lane_transmitted:
                    flag_tx[lane_index] = True
            rptr[:] = lr
            half_has[:] = lh
            half_val[:] = lv
            if kill:
                dead[kill] = True
            if end_dev:
                dev_now[end_dev] = end_time
            merge_s += perf_counter() - t_merge

        t_ledger = perf_counter()
        if t_phase:
            grid_s += t_ledger - t_phase

        # ---- final pre-beacon wake at the horizon --------------------------
        ids = np.nonzero(~dead)[0]
        if ids.size:
            alive_lanes = lane_of[ids]
            flag_sleep[alive_lanes] = True
            now = dev_now[ids]
            wake = np.maximum(horizon - wake_lead, now)
            sleep_t[ids] += wake - now
            wake_beacon[ids] += 1
            idle_beacon_t[ids] += np.maximum(horizon - wake, 0.0)
            beacon_rx[ids] += 1
            flag_beacon[alive_lanes] = True
            # the beacon past the horizon is cut before its traffic poll

        # ---- numpy ledger reduction ----------------------------------------
        power_sd = profile.power_w(RadioState.SHUTDOWN)
        power_idle = profile.power_w(RadioState.IDLE)
        power_rx = profile.power_w(RadioState.RX)
        power_tx = np.array([profile.tx_power_w(level)
                             for level in programmed_flat])
        startup = profile.transition(RadioState.SHUTDOWN, RadioState.IDLE)
        to_rx = profile.transition(RadioState.IDLE, RadioState.RX)
        to_tx = profile.transition(RadioState.IDLE, RadioState.TX)
        from_rx = profile.transition(RadioState.RX, RadioState.IDLE)
        from_tx = profile.transition(RadioState.TX, RadioState.IDLE)

        cca = cca_sched + np.array(cca_loop, dtype=np.int64)
        idle_cont = idle_cont_t + np.array(idle_cont_loop)
        # Ledger identities of the event loop: every transmission is
        # acknowledged or leaves a residual listen, every acknowledgement
        # is a delivery unless the horizon cut the tail, and each
        # transmission dwells exactly one turnaround waiting for the ACK.
        residuals = np.array(residual_rx, dtype=np.int64)
        acks = np.array(delivered, dtype=np.int64)
        if ack_killed:  # pragma: no cover - see the float-edge ack guard
            acks[np.array(ack_killed)] += 1
        tx = acks + residuals
        idle_ack = tx * turnaround

        rx_round_e = to_rx.energy_j + from_rx.energy_j
        rx_round_t = to_rx.duration_s + from_rx.duration_s
        energy_beacon = (wake_beacon * startup.energy_j
                         + idle_beacon_t * power_idle
                         + beacon_rx * (rx_round_e + power_rx * beacon_air))
        energy_cont = (wake_cont * startup.energy_j
                       + idle_cont * power_idle
                       + cca * (rx_round_e + power_rx * slot))
        energy_tx = tx * (to_tx.energy_j + from_tx.energy_j) \
            + tx * power_tx * frame_air
        energy_ack = (idle_ack * power_idle
                      + acks * (rx_round_e + power_rx * ack_air)
                      + residuals * (rx_round_e + power_rx * residual))
        energy_sleep = sleep_t * power_sd
        energy = (energy_beacon + energy_cont + energy_tx + energy_ack
                  + energy_sleep)
        elapsed = (sleep_t
                   + (wake_beacon + wake_cont) * startup.duration_s
                   + idle_beacon_t + idle_cont + idle_ack
                   + beacon_rx * (rx_round_t + beacon_air)
                   + cca * (rx_round_t + slot)
                   + tx * (to_tx.duration_s + from_tx.duration_s + frame_air)
                   + acks * (rx_round_t + ack_air)
                   + residuals * (rx_round_t + residual))
        powers = energy / np.maximum(elapsed, 1e-12)

        summaries = []
        for lane_index in range(lane_count):
            lo = int(bounds[lane_index])
            hi = int(bounds[lane_index + 1])
            phase_energy: Dict[str, float] = {}
            for phase, flag, total in (
                    (PHASE_BEACON, flag_beacon, energy_beacon),
                    (PHASE_CONTENTION, flag_cont, energy_cont),
                    (PHASE_TRANSMIT, flag_tx, energy_tx),
                    (PHASE_ACK, flag_tx, energy_ack),
                    (PHASE_SLEEP, flag_sleep, energy_sleep)):
                if flag[lane_index]:
                    phase_energy[phase] = float(np.sum(total[lo:hi]))
            lane_delivered = sum(delivered[lo:hi])
            lane_tree = lanes[lane_index].tree
            by_depth = None
            if lane_tree is not None:
                by_depth = depth_breakdown(
                    lane_tree,
                    [node.node_id for node in lanes[lane_index].nodes],
                    attempted[lo:hi], delivered[lo:hi], delay_sum[lo:hi],
                    energy[lo:hi], elapsed[lo:hi])
            summaries.append(SimulationSummary(
                simulated_time_s=horizon,
                node_count=hi - lo,
                superframes=superframes,
                packets_attempted=int(attempted[lo:hi].sum()),
                packets_delivered=int(lane_delivered),
                channel_access_failures=int(sum(failures[lo:hi])),
                collisions=0,
                mean_node_power_w=float(np.mean(powers[lo:hi])),
                mean_delivery_delay_s=(sum(delay_sum[lo:hi])
                                       / lane_delivered
                                       if lane_delivered else None),
                energy_by_phase_j=phase_energy,
                by_depth=by_depth,
            ))

        seconds = [setup_s, grid_s, merge_s, perf_counter() - t_ledger]
        counters = {"lanes": lane_count, "devices": n, "rounds": rounds,
                    "attempts": int(attempted.sum()), "cca": int(cca.sum())}
        return summaries, seconds, counters


# ---------------------------------------------------------------------------
# lane-parallel split over forked processes
# ---------------------------------------------------------------------------

#: Kernel phases, in the order :meth:`BatchedChannelSimulator._run_batched`
#: reports their busy seconds.
KERNEL_PHASES = ("setup", "beacon_grid", "contention_merge", "energy_ledger")
#: Work counters of one kernel call: ``rounds`` is the beacon intervals
#: simulated, the others are totals over the lanes.
KERNEL_COUNTERS = ("lanes", "devices", "rounds", "attempts", "cca")

#: Device-superframes each chunk of a split call must carry.  On a 2-core
#: x86 box a split costs ~5 ms (fork, copy-on-write faults, result
#: pickle, reap) plus some set-up per device, against 2-4 us of kernel
#: time per device-superframe.  Two chunks of this size measured 0.75x
#: to 1.55x, depending on the channel load (1600 devices x 10
#: superframes: 1.25x to 1.4x); the paper's 1600 x 50 gains 1.5x to 1.8x.
#: Small kernels (tests, quick sweeps, a scaled-down channel) stay in
#: one process.
MIN_CHUNK_WORK = 8_000


def _chunk_count(lanes: int, devices: int, superframes: int) -> int:
    """How many processes one kernel call splits its lanes over.

    Never more than the lanes, the CPUs this process owns
    (:func:`repro.sim.cpus.owned_cpus`, the seam tests patch to force a
    split), or the chunks that each carry :data:`MIN_CHUNK_WORK`.  A
    process running a second Python thread stays in one chunk: a lock
    that thread holds at the fork would never be released in the child.
    Native OpenBLAS threads do not count — OpenBLAS stops its pool in a
    ``pthread_atfork`` handler, so the child never inherits a held BLAS
    lock.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return 1
    return max(1, min(lanes, owned_cpus(),
                      devices * superframes // MIN_CHUNK_WORK))


def _lane_chunks(counts: Sequence[int],
                 chunks: int) -> List[Tuple[int, int]]:
    """Split lanes with ``counts`` devices into ``chunks`` contiguous
    ``(start, stop)`` ranges of roughly equal device count."""
    cumulative = list(accumulate(counts, initial=0))
    lanes = len(counts)
    edges = [0]
    for index in range(1, chunks):
        target = cumulative[-1] * index / chunks
        edges.append(min(range(edges[-1] + 1, lanes - chunks + index + 1),
                         key=lambda edge: abs(cumulative[edge] - target)))
    edges.append(lanes)
    return list(zip(edges, edges[1:]))


def _record_kernel_spans(results: List, wall_s: float) -> None:
    """Record one ``kernel:batched`` span over the chunks' ``results``.

    The kernel span's duration is the call's wall time ``wall_s``; each
    phase span's is its busy seconds summed over the chunks.  The
    counters are the unsplit run's: ``rounds`` is the most any chunk
    simulated, the others add up.
    """
    tracer = current_tracer()
    if not tracer.enabled:
        return
    totals = {name: sum(counters[name] for _, _, counters in results)
              for name in KERNEL_COUNTERS}
    totals["rounds"] = max(counters["rounds"] for _, _, counters in results)
    kernel = tracer.record_span(
        "kernel:batched", wall_s, kind="kernel",
        counters={name: totals[name] for name in ("lanes", "devices",
                                                  "rounds")})
    phase_counters = {"beacon_grid": {"attempts": totals["attempts"]},
                      "contention_merge": {"cca": totals["cca"]}}
    for index, phase in enumerate(KERNEL_PHASES):
        tracer.record_span(
            phase, sum(seconds[index] for _, seconds, _ in results),
            parent=kernel, counters=phase_counters.get(phase))


def _run_forked(simulator: BatchedChannelSimulator,
                chunks: List[Tuple[int, int]], superframes: int) -> List:
    """Run chunk 0 here and every other chunk in a forked child.

    Each child inherits the lanes copy-on-write, runs
    :meth:`BatchedChannelSimulator._run_batched` on its range — which
    seeds that range's streams itself, so nothing but the result crosses
    the pipe — and pipes back the pickled result; results come back in
    chunk order.  Every child is reaped before this returns or raises —
    one that is still running when this process fails is killed first.
    """
    children: List[Tuple[int, int, int, int]] = []  # pid, fd, start, stop
    reaped: set = set()
    try:
        for start, stop in chunks[1:]:
            read_fd, write_fd = os.pipe()
            try:
                with warnings.catch_warnings():
                    # Python 3.12 warns on fork whenever the OS lists a
                    # second thread; _chunk_count admits only OpenBLAS's.
                    warnings.filterwarnings(
                        "ignore", category=DeprecationWarning,
                        message=r".*use of fork\(\)")
                    pid = os.fork()
            except OSError:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # pragma: no cover - the child's coverage is lost
                os.close(read_fd)  # with its os._exit
                _chunk_child(simulator, start, stop, superframes, write_fd)
            os.close(write_fd)
            children.append((pid, read_fd, start, stop))
        start, stop = chunks[0]
        results = [simulator._run_batched(simulator.lanes[start:stop],
                                          superframes)]
        for pid, read_fd, start, stop in children:
            with open(read_fd, "rb", closefd=False) as pipe:
                payload = pipe.read()
            _, status = os.waitpid(pid, 0)
            reaped.add(pid)
            if not payload:
                raise RuntimeError(
                    f"batched kernel lanes {start}..{stop - 1}: the forked "
                    f"process exited with status "
                    f"{os.waitstatus_to_exitcode(status)} and no result")
            ok, value = pickle.loads(payload)
            if not ok:
                error, trace = value
                raise RuntimeError(
                    f"batched kernel lanes {start}..{stop - 1} failed in a "
                    f"forked process:\n{trace}") from error
            results.append(value)
        return results
    finally:
        for pid, read_fd, _, _ in children:
            os.close(read_fd)
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)  # unreaped, so still ours
                os.waitpid(pid, 0)


def _chunk_child(simulator: BatchedChannelSimulator, start: int, stop: int,
                 superframes: int,
                 write_fd: int) -> None:  # pragma: no cover - forked child
    """The forked side of :func:`_run_forked`; never returns.

    Seeds and runs its lanes, writes ``(True, result)`` or ``(False,
    (error, traceback text))`` and leaves through :func:`os._exit`, so
    neither the parent's atexit handlers nor its buffered output run a
    second time.
    """
    status = 1
    try:
        try:
            outcome = (True, simulator._run_batched(
                simulator.lanes[start:stop], superframes))
        except BaseException as error:  # noqa: BLE001 - shipped to parent
            trace = traceback.format_exc()
            try:
                pickle.dumps(error)
            except Exception:  # noqa: BLE001 - unpicklable error
                error = RuntimeError(repr(error))
            outcome = (False, (error, trace))
        with open(write_fd, "wb") as pipe:
            pipe.write(pickle.dumps(outcome, pickle.HIGHEST_PROTOCOL))
        status = 0
    finally:
        os._exit(status)


# ---------------------------------------------------------------------------
# per-lane reference implementation (test oracle)
# ---------------------------------------------------------------------------

def _simulate_lane_reference(lane: ChannelLane, config: SuperframeConfig,
                             constants: MacConstants, payload_bytes: int,
                             csma_params: CsmaParameters,
                             profile: RadioPowerProfile, traffic,
                             superframes: int):
    """Scalar single-lane kernel drawing from the generators directly.

    This is the pre-batching implementation, retained verbatim as the
    bit-equality oracle of the test suite.  Slower — one Python pass per
    lane — but equivalent: its variates come from ``Generator`` calls
    instead of raw-stream replay, so it does not depend on the identities
    :func:`raw_streams_compatible` probes.
    """
    from repro.network.routing import depth_breakdown, make_lane_sources
    from repro.network.scenario import SimulationSummary
    from repro.network.traffic import SaturatedTraffic

    # Telemetry mirrors _run_batched: phase times accumulate in floats
    # behind one enabled-check, spans are emitted once at the end.
    tracer = current_tracer()
    tracing = tracer.enabled
    t_setup = perf_counter() if tracing else 0.0

    nodes = lane.nodes
    params = csma_params
    n = len(nodes)

    # ---- timing constants (all in seconds) ---------------------------------
    slot = constants.unit_backoff_period_s
    byte_period = constants.timing.byte_period_s
    interval = config.beacon_interval_s
    sf_duration = config.superframe_duration_s
    beacon_air = _beacon_airtime_s(config, constants)
    frame = _make_data_frame(payload_bytes)
    frame_air = frame.airtime_s(byte_period)
    ack_air = AckFrame().airtime_s(byte_period)
    turnaround = constants.turnaround_time_s
    ack_wait = constants.ack_wait_duration_s
    residual = max(0.0, ack_wait - turnaround)
    wake_lead = T_SHUTDOWN_TO_IDLE_POLICY_S
    margin = 56 * slot + frame_air + ack_wait
    txn_tail = frame_air + turnaround + ack_air
    horizon = superframes * interval
    max_transmissions = constants.max_transmissions
    max_backoffs = params.max_csma_backoffs
    contention_window = params.contention_window
    be0 = params.initial_backoff_exponent()
    be_cap = params.max_be
    if params.battery_life_extension:
        be_cap = min(be_cap, params.battery_life_extension_max_be)

    # ---- random streams (identical names to the event kernel) -------------
    streams = RandomStreams(lane.seed)
    coordinator_rng = streams.get("coordinator")
    generators = [streams.get(f"device[{node.node_id}]") for node in nodes]

    # ---- per-node traffic feeds (identical streams to the event kernel) ----
    traffic_model = traffic
    if traffic_model is None:
        traffic_model = SaturatedTraffic(payload_bytes=payload_bytes)
    sources = make_lane_sources(
        traffic_model, [node.node_id for node in nodes], streams,
        tree=lane.tree, hop_lag_s=interval)

    # ---- per-device link/corruption constants -----------------------------
    programmed_dbm = [profile.tx_level(level).level_dbm
                      for level in lane.tx_levels_dbm]
    packet_error = [node.link().packet_error_probability(level,
                                                         frame.ppdu_bytes)
                    for node, level in zip(nodes, programmed_dbm)]

    # ---- lockstep device state ---------------------------------------------
    next_beacon = [0.0] * n        # beacon the device will synchronise to
    beacon_time = [0.0] * n        # beacon anchoring the running transaction
    cfp_start = [0.0] * n          # end of the CAP of that superframe
    attempt = [0] * n              # transmissions already spent this packet
    be = [be0] * n                 # backoff exponent
    nb = [0] * n                   # backoff stages used this attempt
    cw = [0] * n                   # remaining clear CCAs before transmit

    # ---- deferred-ledger accumulators --------------------------------------
    sleep_t = [0.0] * n            # shutdown dwell               (sleep)
    wake_beacon = [0] * n          # shutdown->idle transitions   (beacon)
    idle_beacon_t = [0.0] * n      # pre-beacon idle dwell        (beacon)
    beacon_rx = [0] * n            # beacon receptions            (beacon)
    wake_cont = [0] * n            # stagger wake-ups             (contention)
    idle_cont_t = [0.0] * n        # stagger + backoff idle dwell (contention)
    cca = [0] * n                  # clear channel assessments    (contention)
    tx = [0] * n                   # data-frame transmissions     (transmit)
    idle_ack_t = [0.0] * n         # turnaround idle dwell        (ackifs)
    ack_rx = [0] * n               # acknowledgements received    (ackifs)
    residual_rx = [0] * n          # full ack-wait timeouts       (ackifs)

    # ---- result counters ----------------------------------------------------
    attempted = [0] * n
    delivered = [0] * n
    failures = [0] * n
    delays: List[List[float]] = [[] for _ in range(n)]
    collision_count = 0
    phase_seen = {PHASE_BEACON: False, PHASE_CONTENTION: False,
                  PHASE_TRANSMIT: False, PHASE_ACK: False,
                  PHASE_SLEEP: False}

    # ---- medium state -------------------------------------------------------
    # Transmissions on air as [end_time, collided, device].  Starts are
    # chronological and every frame has the same airtime, so the list
    # stays sorted by end time and is pruned from the front; the device's
    # own reference survives pruning so the final collision status is
    # still readable when the frame completes.
    active: List[list] = []
    pending_tx: List[Optional[list]] = [None] * n

    heap: List[tuple] = []
    seq = 0

    def push(time: float, kind: int, index: int) -> None:
        nonlocal seq
        seq += 1
        heappush(heap, (time, seq, kind, index))

    def start_attempt(index: int, now: float) -> Optional[float]:
        """Draw the first backoff of a contention attempt starting at ``now``.

        Returns the deferral time when the first CCA would fall outside
        the CAP, ``None`` when a CCA sample was scheduled (or the device
        ran past the horizon mid-wait).
        """
        be[index] = be0
        nb[index] = 0
        cw[index] = contention_window
        delay = int(generators[index].integers(0, 1 << be0))
        if delay:
            idle_cont_t[index] += delay * slot
            phase_seen[PHASE_CONTENTION] = True
        cca_start = now + delay * slot
        if cca_start > horizon:
            return None
        if cca_start >= cfp_start[index]:
            return cca_start
        cca[index] += 1
        phase_seen[PHASE_CONTENTION] = True
        push(cca_start + slot, _EVENT_CCA_SAMPLE, index)
        return None

    def begin_superframes(index: int, now: float, initial: bool = False) -> None:
        """Advance a device from the end of one superframe's activity.

        Mirrors the kernel's per-superframe loop: sleep to the pre-beacon
        wake-up, receive the beacon, stagger, start the uplink
        transaction.  Iterates over superframes whose transaction defers
        before its first CCA; every charge is guarded by the simulated
        time at which the kernel would have made it.
        """
        while True:
            if not initial:
                phase_seen[PHASE_SLEEP] = True   # idle->shutdown strobe
            initial = False
            beacon_at = next_beacon[index]
            wake = beacon_at - wake_lead
            if wake > now:
                sleep_t[index] += wake - now
            else:
                wake = now
            if wake > horizon:  # pragma: no cover - the horizon beacon's
                return          # arrival check below returns first
            wake_beacon[index] += 1
            resume = wake
            startup_wait = beacon_at - wake
            if startup_wait > 0:
                idle_beacon_t[index] += startup_wait
                resume = beacon_at
            if resume > horizon:  # pragma: no cover - same: beacons past
                return            # the horizon are never begun
            beacon_rx[index] += 1
            phase_seen[PHASE_BEACON] = True
            arrival = resume + beacon_air
            if arrival > horizon:
                return
            # Poll the traffic feed at the superframe boundary, exactly
            # where the event kernel does: no buffered packet means the
            # device sleeps this superframe out after the beacon.
            if not sources[index].poll(beacon_at):
                now = arrival
                next_beacon[index] += interval
                continue
            sources[index].drain_packet()
            cap_end = beacon_at + sf_duration
            latest_start = cap_end - margin
            start = arrival
            if latest_start > arrival + wake_lead:
                phase_seen[PHASE_CONTENTION] = True
                start = float(generators[index].uniform(
                    arrival + wake_lead, latest_start))
                stagger_sleep = start - arrival - wake_lead
                if stagger_sleep > 0:
                    phase_seen[PHASE_SLEEP] = True
                    sleep_t[index] += stagger_sleep
                    # start < latest_start <= horizon, so the cut cannot
                    # land mid-stagger
                    if start - wake_lead > horizon:  # pragma: no cover
                        return
                    wake_cont[index] += 1
                idle_cont_t[index] += wake_lead
            attempted[index] += 1
            attempt[index] = 0
            beacon_time[index] = beacon_at
            cfp_start[index] = cap_end
            deferred_at = start_attempt(index, start)
            if deferred_at is None:
                return
            now = deferred_at
            next_beacon[index] += interval

    def end_transaction(index: int, now: float) -> None:
        next_beacon[index] += interval
        begin_superframes(index, now)

    if tracing:
        t_grid = perf_counter()
        setup_s = t_grid - t_setup

    for index in range(n):
        begin_superframes(index, 0.0, initial=True)

    # ---- interaction event loop --------------------------------------------
    if tracing:
        t_merge = perf_counter()
        grid_s = t_merge - t_grid
    while heap:
        now, _, kind, index = heappop(heap)
        if now > horizon:
            break
        while active and active[0][0] <= now:
            active.pop(0)

        if kind == _EVENT_CCA_SAMPLE:
            if active:  # channel busy at the sample instant
                nb[index] += 1
                be[index] = min(be[index] + 1, be_cap)
                cw[index] = contention_window
                if nb[index] > max_backoffs:
                    failures[index] += 1
                    end_transaction(index, now)
                    continue
                delay = int(generators[index].integers(0, 1 << be[index]))
                if delay:
                    idle_cont_t[index] += delay * slot
                cca_start = now + delay * slot
                if cca_start > horizon:
                    continue
                if cca_start >= cfp_start[index]:
                    end_transaction(index, cca_start)
                    continue
                cca[index] += 1
                push(cca_start + slot, _EVENT_CCA_SAMPLE, index)
                continue
            cw[index] -= 1
            if cw[index] > 0:  # second CCA of the contention window
                if now >= cfp_start[index]:
                    end_transaction(index, now)
                    continue
                cca[index] += 1
                push(now + slot, _EVENT_CCA_SAMPLE, index)
                continue
            # Channel clear twice: transmit, unless the transaction no
            # longer fits in the contention access period.
            if now + txn_tail > cfp_start[index]:
                end_transaction(index, now)
                continue
            tx[index] += 1
            phase_seen[PHASE_TRANSMIT] = True
            entry = [now + frame_air, False, index]
            if active:  # pragma: no cover - measure-zero with CCA sampling
                entry[1] = True
                for other in active:
                    other[1] = True
                collision_count += 1
            active.append(entry)
            pending_tx[index] = entry
            push(now + frame_air, _EVENT_TX_END, index)
            continue

        # ---- data frame completed: acknowledgement decision ----------------
        phase_seen[PHASE_ACK] = True
        # Collision status is final: any collider must have started
        # strictly before the frame ended.
        entry = pending_tx[index]
        pending_tx[index] = None
        collided = entry[1]
        acked = False
        if not collided:
            acked = not (coordinator_rng.random() < packet_error[index])
        idle_ack_t[index] += turnaround
        ack_resume = now + turnaround
        if acked:
            ack_rx[index] += 1
            done = ack_resume + ack_air
            # float-edge guard: the CAP fit check bounds done <= horizon
            if done > horizon:  # pragma: no cover
                continue
            delivered[index] += 1
            delays[index].append(done - beacon_time[index])
            end_transaction(index, done)
            continue
        residual_rx[index] += 1
        retry_at = ack_resume + residual
        if retry_at > horizon:
            continue
        attempt[index] += 1
        if attempt[index] >= max_transmissions:
            end_transaction(index, retry_at)
            continue
        deferred_at = start_attempt(index, retry_at)
        if deferred_at is not None:
            end_transaction(index, deferred_at)

    # ---- numpy ledger reduction --------------------------------------------
    if tracing:
        t_ledger = perf_counter()
        merge_s = t_ledger - t_merge
    power_sd = profile.power_w(RadioState.SHUTDOWN)
    power_idle = profile.power_w(RadioState.IDLE)
    power_rx = profile.power_w(RadioState.RX)
    power_tx = np.array([profile.tx_power_w(level)
                         for level in programmed_dbm])
    startup = profile.transition(RadioState.SHUTDOWN, RadioState.IDLE)
    to_rx = profile.transition(RadioState.IDLE, RadioState.RX)
    to_tx = profile.transition(RadioState.IDLE, RadioState.TX)
    from_rx = profile.transition(RadioState.RX, RadioState.IDLE)
    from_tx = profile.transition(RadioState.TX, RadioState.IDLE)

    sleep_t = np.array(sleep_t)
    wake_beacon = np.array(wake_beacon)
    idle_beacon_t = np.array(idle_beacon_t)
    beacon_rx = np.array(beacon_rx)
    wake_cont = np.array(wake_cont)
    idle_cont_t = np.array(idle_cont_t)
    cca = np.array(cca)
    tx = np.array(tx)
    idle_ack_t = np.array(idle_ack_t)
    ack_rx = np.array(ack_rx)
    residual_rx = np.array(residual_rx)

    rx_round_e = to_rx.energy_j + from_rx.energy_j
    rx_round_t = to_rx.duration_s + from_rx.duration_s
    energy_beacon = (wake_beacon * startup.energy_j
                     + idle_beacon_t * power_idle
                     + beacon_rx * (rx_round_e + power_rx * beacon_air))
    energy_cont = (wake_cont * startup.energy_j
                   + idle_cont_t * power_idle
                   + cca * (rx_round_e + power_rx * slot))
    energy_tx = tx * (to_tx.energy_j + from_tx.energy_j) \
        + tx * power_tx * frame_air
    energy_ack = (idle_ack_t * power_idle
                  + ack_rx * (rx_round_e + power_rx * ack_air)
                  + residual_rx * (rx_round_e + power_rx * residual))
    energy_sleep = sleep_t * power_sd
    energy = (energy_beacon + energy_cont + energy_tx + energy_ack
              + energy_sleep)
    elapsed = (sleep_t
               + (wake_beacon + wake_cont) * startup.duration_s
               + idle_beacon_t + idle_cont_t + idle_ack_t
               + beacon_rx * (rx_round_t + beacon_air)
               + cca * (rx_round_t + slot)
               + tx * (to_tx.duration_s + from_tx.duration_s + frame_air)
               + ack_rx * (rx_round_t + ack_air)
               + residual_rx * (rx_round_t + residual))
    powers = energy / np.maximum(elapsed, 1e-12)

    phase_energy: Dict[str, float] = {}
    for phase, total in ((PHASE_BEACON, energy_beacon),
                         (PHASE_CONTENTION, energy_cont),
                         (PHASE_TRANSMIT, energy_tx),
                         (PHASE_ACK, energy_ack),
                         (PHASE_SLEEP, energy_sleep)):
        if phase_seen[phase]:
            phase_energy[phase] = float(np.sum(total))

    all_delays = [delay for per_device in delays for delay in per_device]
    by_depth = None
    if lane.tree is not None:
        by_depth = depth_breakdown(
            lane.tree, [node.node_id for node in nodes], attempted,
            delivered, [sum(per_device) for per_device in delays],
            energy, elapsed)

    if tracing:
        ledger_s = perf_counter() - t_ledger
        kernel = tracer.record_span(
            "kernel:reference", setup_s + grid_s + merge_s + ledger_s,
            kind="kernel", counters={"lanes": 1, "devices": n})
        tracer.record_span("setup", setup_s, parent=kernel)
        tracer.record_span("beacon_grid", grid_s, parent=kernel,
                           counters={"attempts": int(sum(attempted))})
        tracer.record_span("contention_merge", merge_s, parent=kernel,
                           counters={"cca": int(cca.sum())})
        tracer.record_span("energy_ledger", ledger_s, parent=kernel)
    return SimulationSummary(
        simulated_time_s=horizon,
        node_count=n,
        superframes=superframes,
        packets_attempted=int(sum(attempted)),
        packets_delivered=int(sum(delivered)),
        channel_access_failures=int(sum(failures)),
        collisions=collision_count,
        mean_node_power_w=float(np.mean(powers)),
        mean_delivery_delay_s=(float(np.mean(all_delays))
                               if all_delays else None),
        energy_by_phase_j=phase_energy,
        by_depth=by_depth,
    )
