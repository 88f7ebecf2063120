"""The batched kernel's lane-parallel split over forked processes.

:class:`BatchedChannelSimulator` splits its independent lanes into
contiguous chunks and runs every chunk after the first in an
``os.fork()`` child.  These tests force 2- and 3-way splits through the
CPU-count seam (``owned_cpus``) with the work cap lifted, so they run on
a 1-CPU machine too, and pin the contract: the summaries, the span tree
and its counters are those of the unsplit run; a failing child raises in
the parent and leaves no zombie; and a process that must not split —
one running a second Python thread, a process-pool worker, a service
worker — does not.
"""

import os
import threading

import pytest

import repro.mac.vectorized as vectorized
import repro.sim.cpus as cpus
from repro.mac.vectorized import BatchedChannelSimulator
from repro.network.routing import GradientRouting
from repro.network.simulate import _channel_lanes
from repro.network.spec import ScenarioSpec
from repro.network.topology import GridTopologyModel
from repro.network.traffic import build_traffic_model
from repro.obs.tracer import Tracer, activate

SUPERFRAMES = 4

#: The seed-7 multi-hop energy-hole setting on three channels.
ROUTED = dict(total_nodes=72, num_channels=3, beacon_order=3,
              topology=GridTopologyModel(),
              routing=GradientRouting(max_hops=2),
              traffic=build_traffic_model("periodic", payload_bytes=120,
                                          rate_scale=0.5))

SCENARIOS = {
    "star": (dict(total_nodes=60, num_channels=4, beacon_order=3), 0),
    "routed": (ROUTED, 7),
    "poisson": (dict(total_nodes=48, num_channels=4, beacon_order=4,
                     superframe_order=2,
                     traffic=build_traffic_model("poisson",
                                                 payload_bytes=120)), 5),
}


def simulator_for(lanes, spec):
    return BatchedChannelSimulator(
        lanes, config=spec.superframe_config(), constants=spec.constants(),
        payload_bytes=spec.payload_bytes, csma_params=spec.csma_parameters(),
        traffic=spec.traffic)


def scenario(name):
    params, seed = SCENARIOS[name]
    spec = ScenarioSpec(**params)
    lanes, _ = _channel_lanes(spec, seed, None, replications=1)
    return lanes, spec


@pytest.fixture()
def split(monkeypatch):
    """Force ``ways`` chunks per kernel call and count the forks."""
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    def force(ways):
        monkeypatch.setattr(vectorized, "owned_cpus", lambda: ways)
        monkeypatch.setattr(vectorized, "MIN_CHUNK_WORK", 1)
        monkeypatch.setattr(os, "fork", counting_fork)
        return forks

    return force


def traced_run(simulator):
    tracer = Tracer("kernel")
    with activate(tracer):
        summaries = simulator.run(superframes=SUPERFRAMES)
    spans = [(span.span_id, span.parent_id, span.name, span.kind,
              dict(span.counters)) for span in tracer.spans]
    return summaries, spans


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestSplitEqualsUnsplit:
    @pytest.mark.parametrize("ways", [2, 3])
    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_summaries_and_span_counters_are_the_unsplit_runs(
            self, name, ways, split):
        lanes, spec = scenario(name)
        unsplit, unsplit_spans = traced_run(simulator_for(lanes, spec))
        forks = split(ways)
        summaries, spans = traced_run(simulator_for(lanes, spec))
        assert len(forks) == ways - 1
        assert summaries == unsplit
        assert spans == unsplit_spans
        assert_no_child_left()

    def test_star_and_routed_lanes_in_one_batch(self, split):
        """A chunk of star lanes alone takes the source-free saturated
        path that the unsplit batch (which has relays) leaves; the rows
        must not notice."""
        routed, _ = scenario("routed")
        spec = ScenarioSpec(total_nodes=60, num_channels=3, beacon_order=3)
        star, _ = _channel_lanes(spec, 2, None, replications=1)
        lanes = star + routed
        unsplit = simulator_for(lanes, spec).run(superframes=SUPERFRAMES)
        split(2)
        assert simulator_for(lanes, spec).run(
            superframes=SUPERFRAMES) == unsplit


class TestChunking:
    def test_chunks_balance_devices_and_stay_contiguous(self):
        assert vectorized._lane_chunks([10] * 16, 2) == [(0, 8), (8, 16)]
        assert vectorized._lane_chunks([10] * 16, 3) == \
            [(0, 5), (5, 11), (11, 16)]
        assert vectorized._lane_chunks([30, 1, 1, 1, 27], 2) == \
            [(0, 1), (1, 5)]
        assert vectorized._lane_chunks([5, 5], 2) == [(0, 1), (1, 2)]
        assert vectorized._lane_chunks([7], 1) == [(0, 1)]

    def test_chunk_count_is_capped_by_lanes_cpus_and_work(self, monkeypatch):
        monkeypatch.setattr(vectorized, "owned_cpus", lambda: 3)
        work = vectorized.MIN_CHUNK_WORK
        assert vectorized._chunk_count(16, 1600, 50) == 3
        assert vectorized._chunk_count(2, 1600, 50) == 2
        assert vectorized._chunk_count(16, work, 2) == 2
        assert vectorized._chunk_count(16, work, 1) == 1

    def test_a_small_kernel_never_forks(self, monkeypatch):
        monkeypatch.setattr(vectorized, "owned_cpus", lambda: 3)
        monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
        lanes, spec = scenario("star")
        simulator_for(lanes, spec).run(superframes=SUPERFRAMES)

    def test_owned_cpus_divide_the_affinity_set_by_the_share(
            self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        monkeypatch.setattr(cpus, "_share", 1)
        assert cpus.owned_cpus() == 4
        cpus.share_cpus(2)
        assert cpus.owned_cpus() == 2
        cpus.share_cpus(3)
        assert cpus.owned_cpus() == 1


class TestChildFailures:
    @staticmethod
    def fail_in(monkeypatch, where, error):
        """Make ``_run_batched`` raise in the parent or in the children."""
        parent = os.getpid()
        run_batched = BatchedChannelSimulator._run_batched

        def failing(self, lanes, superframes):
            if (os.getpid() == parent) == (where == "parent"):
                raise error
            return run_batched(self, lanes, superframes)

        monkeypatch.setattr(BatchedChannelSimulator, "_run_batched", failing)

    def test_a_child_error_names_its_lanes_and_leaves_no_zombie(
            self, split, monkeypatch):
        lanes, spec = scenario("star")
        split(3)
        self.fail_in(monkeypatch, "child", ValueError("lane trouble"))
        with pytest.raises(RuntimeError,
                           match=r"lanes 1\.\.2 failed in a forked") as info:
            simulator_for(lanes, spec).run(superframes=SUPERFRAMES)
        assert isinstance(info.value.__cause__, ValueError)
        assert "lane trouble" in str(info.value)
        assert_no_child_left()

    @pytest.mark.parametrize("error", [RuntimeError("parent chunk"),
                                       KeyboardInterrupt()])
    def test_a_failing_parent_chunk_reaps_its_children(
            self, split, monkeypatch, error):
        lanes, spec = scenario("star")
        forks = split(3)
        self.fail_in(monkeypatch, "parent", error)
        with pytest.raises(type(error)):
            simulator_for(lanes, spec).run(superframes=SUPERFRAMES)
        assert len(forks) == 2
        assert_no_child_left()


def report_chunking(_):
    """Pool task: this worker's CPU share and its chunk count for the
    paper-scale kernel."""
    return cpus._share, vectorized._chunk_count(16, 1600, 50)


class TestProcessesThatDoNotSplit:
    def test_a_second_python_thread_keeps_one_chunk(self, split):
        lanes, spec = scenario("star")
        forks = split(3)
        release = threading.Event()
        thread = threading.Thread(target=release.wait)
        thread.start()
        try:
            assert vectorized._chunk_count(16, 1600, 50) == 1
            simulator_for(lanes, spec).run(superframes=SUPERFRAMES)
        finally:
            release.set()
            thread.join()
        assert forks == []
        assert vectorized._chunk_count(16, 1600, 50) == 3

    def test_a_process_pool_worker_owns_its_share_of_the_cpus(
            self, monkeypatch):
        """Pool workers fork from this process, so they inherit the
        patched two-CPU affinity set; each owns one CPU."""
        from repro.runner.executor import ProcessExecutor
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        results = {result for _, result in ProcessExecutor(jobs=2).map_tasks(
            report_chunking, range(4))}
        assert results == {(2, 1)}

    def test_a_service_worker_owns_its_share_of_the_cpus(self, monkeypatch):
        from repro.service.supervisor import Supervisor

        class Socket:
            def close(self):
                pass

        class Server:
            socket = Socket()

        class Worker:
            def run_forever(self, stopping, *, wake_fd, stop_fd):
                seen.append(report_chunking(None))

        class Stop:
            received = set()

            def fileno(self):
                return -1

            def wait(self, timeout_s):
                return set()

        seen = []
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        monkeypatch.setattr(cpus, "_share", 1)
        supervisor = Supervisor(store=None, make_worker=Worker, workers=3)
        supervisor._server = Server()
        supervisor._wake = (-1, -1)
        assert supervisor._worker_main(Stop()) == 0
        assert seen == [(3, 1)]
