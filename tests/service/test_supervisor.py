"""Fault-injection tests of the ``repro serve`` process tree.

Each test starts a real ``python -m repro serve`` subprocess (with
``DeprecationWarning`` promoted to an error, so forking from a process
that runs another thread fails it) and injects real faults: a SIGKILLed
worker mid-job, a SIGTERM while a job computes, a SIGKILLed supervisor.
"""

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.api import DirectoryBackend
from repro.service import JobState, JobStore, ServiceClient

SRC = Path(__file__).resolve().parents[2] / "src"

#: About a second of kernel time on a 2-core x86 box: long enough to be
#: caught mid-job, the whole paper population on 16 channels.
SLOW_PARAMS = {"total_nodes": 1600, "num_channels": 16, "superframes": 200}
QUICK_PARAMS = {"total_nodes": 400, "num_channels": 8, "superframes": 50}


def job(seed, params):
    return {"kind": "run", "name": "case_study_full", "seed": seed,
            "params": dict(params)}


class Serve:
    """One ``repro serve`` subprocess on a fresh cache and store;
    ``prelude`` is Python run in it before the CLI."""

    def __init__(self, tmp_path, workers, port=0, prelude=None):
        self.cache = tmp_path / "cache"
        self.store_path = self.cache / "jobs.sqlite"
        main = ["-m", "repro"] if prelude is None else [
            "-c", prelude + "\nimport runpy\n"
            "runpy.run_module('repro', run_name='__main__')"]
        self.process = subprocess.Popen(
            [sys.executable, "-W", "error::DeprecationWarning", *main,
             "serve", "--port", str(port), "--workers", str(workers),
             "--cache-dir", str(self.cache)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        banner = self.process.stdout.readline()
        match = re.search(r"(http://[\d.]+:\d+)", banner)
        assert match, (banner, self._stderr())
        self.client = ServiceClient(match.group(1))

    def _stderr(self):
        if self.process.poll() is None:
            return ""
        return self.process.stderr.read()

    def wait_for(self, predicate, timeout_s=60.0):
        deadline = time.monotonic() + timeout_s
        while not predicate():
            assert time.monotonic() < deadline, "timed out"
            assert self.process.poll() is None, self._stderr()
            time.sleep(0.01)

    def running_on(self, job_id):
        """Wait until ``job_id`` runs; returns its worker's pid."""
        status = {}

        def running():
            status.update(self.client.status(job_id))
            return status["state"] == JobState.RUNNING

        self.wait_for(running)
        return int(status["worker"].rsplit(":", 1)[1])

    def live_pids(self):
        return {worker["pid"]
                for worker in self.client.health()["live_workers"]}

    def stop(self, timeout_s=60.0):
        """SIGTERM; returns the exit status."""
        self.client.close()
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
        try:
            return self.process.wait(timeout=timeout_s)
        finally:
            self.process.stdout.close()
            self.process.stderr.close()


@pytest.fixture()
def serve(tmp_path):
    started = []

    def start(workers, **options):
        started.append(Serve(tmp_path, workers, **options))
        return started[-1]

    yield start
    for server in started:
        if server.process.poll() is None:
            server.process.kill()
            server.process.wait()


def test_a_killed_worker_job_is_computed_exactly_once(serve):
    server = serve(workers=2)
    client = server.client
    server.wait_for(lambda: len(server.live_pids()) == 2)
    first = server.live_pids()
    receipt = client.submit(job(3, SLOW_PARAMS))
    victim = server.running_on(receipt["job_id"])
    os.kill(victim, signal.SIGKILL)

    status = client.wait(receipt["job_id"], timeout_s=120,
                         poll_interval_s=0.02)
    assert status["state"] == JobState.DONE
    assert status["attempts"] == 2
    counters = client.metrics()["counters"]
    assert counters["service.jobs.computed"] == 1
    assert counters["service.jobs.done"] == 1
    assert counters["service.workers.lost"] == 1
    assert len(list(DirectoryBackend(server.cache).keys())) == 1

    # The supervisor forked a replacement; with both live workers idle,
    # two jobs submitted together go one to each.
    server.wait_for(lambda: len(server.live_pids()) == 2)
    live = server.live_pids()
    assert victim not in live
    [replacement] = live - first
    receipts = [client.submit(job(seed, QUICK_PARAMS)) for seed in (4, 5)]
    workers = set()
    for receipt in receipts:
        status = client.wait(receipt["job_id"], timeout_s=120,
                             poll_interval_s=0.02)
        assert status["state"] == JobState.DONE
        workers.add(int(status["worker"].rsplit(":", 1)[1]))
    assert replacement in workers
    assert client.metrics()["counters"]["service.jobs.computed"] == 3
    assert server.stop() == 0


def test_sigterm_drains_the_job_in_hand(serve):
    server = serve(workers=1)
    receipt = server.client.submit(job(6, SLOW_PARAMS))
    server.running_on(receipt["job_id"])
    assert server.stop() == 0
    record = JobStore(server.store_path).get(receipt["job_id"])
    assert record.state == JobState.DONE
    assert record.attempts == 1


def test_zero_workers_serves_the_frontend_alone(serve):
    server = serve(workers=0)
    server.wait_for(server.client.health)
    health = server.client.health()
    assert (health["workers"], health["live_workers"]) == (0, [])
    receipt = server.client.submit(job(7, QUICK_PARAMS))
    time.sleep(0.2)
    assert server.client.status(receipt["job_id"])["state"] == \
        JobState.QUEUED
    assert server.stop() == 0


def test_children_exit_when_the_supervisor_is_killed(serve):
    server = serve(workers=1)
    server.wait_for(lambda: len(server.live_pids()) == 1)
    [worker] = server.live_pids()
    server.process.kill()
    server.process.wait()
    deadline = time.monotonic() + 30
    while True:
        try:
            server.client.health()
            frontend_alive = True
        except OSError:
            frontend_alive = False
        if not frontend_alive and not _running(worker):
            break
        assert time.monotonic() < deadline, "orphaned children survive"
        time.sleep(0.05)
    server.stop()


#: Wraps ``os.fork`` in the supervisor process: every fork it makes must
#: find no descriptor of the job store open, or it raises (and ``serve``
#: then exits non-zero).  Each checked fork prints one stderr line.
NO_STORE_AT_FORK = """
import os, sys
_fork, _supervisor = os.fork, os.getpid()

def _checked_fork():
    if os.getpid() == _supervisor:
        store = [target for target in (
            os.readlink(f"/proc/self/fd/{fd}")
            for fd in os.listdir("/proc/self/fd")
            if os.path.exists(f"/proc/self/fd/{fd}"))
            if "jobs.sqlite" in target]
        if store:
            raise AssertionError(f"fork with the store open: {store}")
        print("fork checked", file=sys.stderr, flush=True)
    return _fork()

os.fork = _checked_fork
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
def test_no_store_connection_is_open_across_a_fork(serve):
    server = serve(workers=2, prelude=NO_STORE_AT_FORK)
    client = server.client
    server.wait_for(lambda: len(server.live_pids()) == 2)
    receipt = client.submit(job(9, QUICK_PARAMS))
    assert client.wait(receipt["job_id"], timeout_s=120,
                       poll_interval_s=0.02)["state"] == JobState.DONE
    # A respawn forks after the supervisor used the store to retire the
    # dead worker and register the others.
    victim = sorted(server.live_pids())[0]
    os.kill(victim, signal.SIGKILL)
    server.wait_for(lambda: len(server.live_pids()) == 2
                    and victim not in server.live_pids())
    server.process.send_signal(signal.SIGTERM)
    assert server.process.wait(timeout=60) == 0, server._stderr()
    # The frontend, two workers and the replacement.
    assert server._stderr().count("fork checked") >= 4
    server.stop()


def test_the_client_recovers_when_the_frontend_restarts_on_its_port(
        serve):
    first = serve(workers=0)
    client = ServiceClient(first.client.base_url)
    try:
        first.wait_for(lambda: _answers(client))
        port = int(client.base_url.rsplit(":", 1)[1])
        assert first.stop() == 0
        second = serve(workers=0, port=port)
        assert second.client.base_url == client.base_url
        second.wait_for(lambda: _answers(second.client))
        # The same client: its kept connection went with the first
        # frontend, so it reconnects.
        assert client.health()["status"] == "ok"
        assert second.stop() == 0
    finally:
        client.close()


def _answers(client):
    try:
        client.health()
    except OSError:
        return False
    return True


def _running(pid):
    """Whether ``pid`` runs (an exited orphan may linger as a zombie
    until its new parent reaps it)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False
    except OSError:  # pragma: no cover - no procfs
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return False
        return True
