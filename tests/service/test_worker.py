"""Tests of the worker loop: execution, dedup, retries, lost claims and
the counters a worker publishes (the process topology around it is
tested in ``test_supervisor.py``)."""

import os
import socket
import threading
import time

import pytest

from repro.api import Session, resolve_backend
from repro.service import JobSpec, JobState, JobStore, Worker
from repro.service import canonicalize, worker_identity


def submit(store, session, spec):
    job = canonicalize(session, spec)
    store.submit(job.job_id, job.payload, cache_key=job.cache_key)
    return job


@pytest.fixture()
def backend(tmp_path):
    return resolve_backend("shared", tmp_path / "cache")


@pytest.fixture()
def store(tmp_path):
    return JobStore(tmp_path / "jobs.sqlite")


class TestExecute:
    def test_run_job_result_is_byte_identical_to_a_direct_run(
            self, backend, store):
        session = Session(backend=backend)
        job = submit(store, session,
                     JobSpec(kind="run", name="fig3_radio", seed=9))
        worker = Worker(store, session, "w0")
        worker.execute(store.claim("w0"))
        record = store.get(job.job_id)
        assert record.state == JobState.DONE
        assert record.cache_key == job.cache_key
        direct = Session(backend=backend).run("fig3_radio", seed=9)
        assert store.result_text(job.job_id) == direct.to_json()

    def test_counters_distinguish_computed_from_cache(self, backend, store):
        session = Session(backend=backend)
        spec = JobSpec(kind="run", name="fig3_radio", seed=9)
        job = submit(store, session, spec)
        worker = Worker(store, session, "w0")
        worker.execute(store.claim("w0"))
        # Same computation, new job id (different spelling is deduped, so
        # force a distinct identity with a fresh store entry).
        store2 = JobStore(store.path.parent / "second.sqlite")
        job2 = submit(store2, session, spec)
        assert job2.job_id == job.job_id
        worker2 = Worker(store2, session, "w1")
        worker2.execute(store2.claim("w1"))
        assert worker.tracer.counters.as_dict()[
            "service.jobs.computed"] == 1
        assert worker2.tracer.counters.as_dict()[
            "service.jobs.served_from_cache"] == 1

    def test_failing_job_retries_then_fails(self, store, tmp_path):
        session = _CrashingSession(fail_times=99)
        job = submit_run_stub(store, "always-broken")
        worker = Worker(store, session, "w0")
        for _ in range(3):
            record = store.claim("w0")
            worker.execute(record)
        final = store.get(job)
        assert final.state == JobState.FAILED
        assert "synthetic crash" in final.error
        assert worker.tracer.counters.as_dict()["service.jobs.retried"] == 2
        assert worker.tracer.counters.as_dict()["service.jobs.failed"] == 1

    def test_transient_crash_recovers_on_retry(self, store):
        session = _CrashingSession(fail_times=1)
        job = submit_run_stub(store, "flaky")
        worker = Worker(store, session, "w0")
        worker.execute(store.claim("w0"))
        assert store.get(job).state == JobState.QUEUED  # requeued
        worker.execute(store.claim("w0"))
        final = store.get(job)
        assert final.state == JobState.DONE
        assert store.result_text(job) == '{"stub": true}'


class TestLostClaims:
    """A claim released under a running job (its worker was presumed
    dead) must count ``service.jobs.lost_claim`` — never done, computed or
    retried."""

    def test_finishing_a_lost_claim_counts_lost_claim(self, store):
        job = submit_run_stub(store, "released")
        session = _ReleasingSession(store, "w0")
        worker = Worker(store, session, "w0")
        worker.execute(store.claim("w0"))
        counters = worker.tracer.counters.as_dict()
        assert counters["service.jobs.lost_claim"] == 1
        assert "service.jobs.done" not in counters
        assert "service.jobs.computed" not in counters
        assert store.get(job).state == JobState.QUEUED
        assert store.result_text(job) is None
        assert _published(store, "w0") == counters

    def test_failing_a_lost_claim_counts_lost_claim(self, store):
        submit_run_stub(store, "released-then-broken")
        session = _ReleasingSession(store, "w0", crash=True)
        worker = Worker(store, session, "w0")
        worker.execute(store.claim("w0"))
        counters = worker.tracer.counters.as_dict()
        assert counters["service.jobs.lost_claim"] == 1
        assert "service.jobs.retried" not in counters
        assert "service.jobs.failed" not in counters


class TestPublishedCounters:
    def test_done_is_published_with_the_job(self, backend, store):
        session = Session(backend=backend)
        submit(store, session, JobSpec(kind="run", name="fig3_radio",
                                       seed=9))
        worker = Worker(store, session, "w0")
        worker.execute(store.claim("w0"))
        [record] = store.workers()
        assert record.counters == worker.tracer.counters.as_dict()
        assert record.counters["service.jobs.done"] == 1
        assert record.counters["service.jobs.computed"] == 1
        assert record.backend_counters == {"lock.acquired": 1}

    def test_worker_ids_name_the_host_and_the_process(self, store):
        expected = f"{socket.gethostname()}:{os.getpid()}"
        assert worker_identity() == expected
        assert worker_identity(7) == f"{socket.gethostname()}:7"
        assert Worker(store, _SlowSession(0.0)).worker_id == expected


class TestPool:
    def test_two_workers_drain_disjointly_with_no_recompute(
            self, tmp_path, store):
        """The acceptance race: 2 workers, each with its own backend over
        one shared cache directory (as worker processes have), several
        jobs — every job done, each claimed once, each distinct
        computation computed once."""
        root = tmp_path / "cache"
        session = Session(backend=resolve_backend("shared", root))
        jobs = []
        for seed in (11, 12, 13, 14):
            jobs.append(submit(store, session,
                               JobSpec(kind="run", name="fig3_radio",
                                       seed=seed)))
        workers = [Worker(store,
                          Session(backend=resolve_backend("shared", root)),
                          f"w{index}", poll_interval_s=0.02)
                   for index in range(2)]
        with run_in_threads(workers):
            assert wait_idle(store, timeout_s=120)
        counters = {}
        for record in store.workers():
            for name, value in record.counters.items():
                counters[name] = counters.get(name, 0) + value
        assert counters["service.jobs.done"] == len(jobs)
        assert counters["service.jobs.claimed"] == len(jobs)
        assert counters["service.jobs.computed"] == len(jobs)
        assert counters.get("service.jobs.served_from_cache", 0) == 0
        for job in jobs:
            record = store.get(job.job_id)
            assert record.state == JobState.DONE
            assert record.attempts == 1  # claimed exactly once

    def test_idle_workers_requeue_stale_claims_of_peers(self, tmp_path):
        """A peer ``serve`` process that went silent: its claim is
        requeued once its heartbeat is stale, and finished here."""
        now = [1000.0]
        store = JobStore(tmp_path / "jobs.sqlite", clock=lambda: now[0])
        job = submit_run_stub(store, "orphaned")
        store.claim("ghost-worker")
        now[0] += 120
        worker = Worker(store, _SlowSession(delay_s=0.0), "w0",
                        poll_interval_s=0.02, stale_after_s=30)
        with run_in_threads([worker]):
            assert wait_idle(store, timeout_s=30)
        record = store.get(job)
        assert record.state == JobState.DONE
        assert record.attempts == 2  # ghost's claim plus the real one
        assert worker.tracer.counters.as_dict()[
            "service.jobs.stale_recovered"] == 1


class run_in_threads:
    """Run workers' loops on threads; leaving the block stops them
    gracefully (each finishes its job in hand)."""

    def __init__(self, workers):
        self.stop = threading.Event()
        self.threads = [threading.Thread(target=worker.run_forever,
                                         args=(self.stop.is_set,),
                                         daemon=True)
                        for worker in workers]

    def __enter__(self):
        for thread in self.threads:
            thread.start()
        return self

    def __exit__(self, *exc_info):
        self.stop.set()
        for thread in self.threads:
            thread.join(timeout=30)


def wait_idle(store, timeout_s):
    """Block until no job is queued or running (or the timeout)."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        counts = store.counts()
        if counts[JobState.QUEUED] == 0 and counts[JobState.RUNNING] == 0:
            return True
        time.sleep(0.02)
    return False


def _published(store, worker_id):
    return next(record.counters for record in store.workers()
                if record.worker_id == worker_id)


# -- stub sessions (duck-typed against the Session surface the worker uses) ----

def submit_run_stub(store, name):
    """Enqueue a canonical-shaped run payload without touching the engine."""
    payload = {"kind": "run", "experiment": name, "params": {}, "seed": 1,
               "code_version": "stub"}
    store.submit(name, payload)
    return name


class _StubResult:
    cache_key = "s" * 64
    cache_hit = False

    def to_json(self):
        return '{"stub": true}'


class _StubSessionBase:
    seed = 1
    cache = object()  # no .backend attribute -> worker skips locking

    def cache_key(self, name, *, seed=None, **params):
        return "s" * 64


class _CrashingSession(_StubSessionBase):
    def __init__(self, fail_times):
        self.remaining = fail_times

    def run(self, name, *, seed=None, **params):
        if self.remaining > 0:
            self.remaining -= 1
            raise RuntimeError("synthetic crash")
        return _StubResult()


class _ReleasingSession(_StubSessionBase):
    """Runs while the claim is released under it — what the supervisor
    does when it presumes the worker dead."""

    def __init__(self, store, worker_id, crash=False):
        self.store = store
        self.worker_id = worker_id
        self.crash = crash

    def run(self, name, *, seed=None, **params):
        self.store.retire_worker(self.worker_id, lost=True)
        if self.crash:
            raise RuntimeError("synthetic crash")
        return _StubResult()


class _SlowSession(_StubSessionBase):
    def __init__(self, delay_s):
        self.delay_s = delay_s

    def run(self, name, *, seed=None, **params):
        time.sleep(self.delay_s)
        return _StubResult()
