"""Tests of the sqlite job store: claims, retries, staleness, dedup and
the worker registry."""

import json
import os
import sqlite3
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.service import JobState, JobStore, worker_identity

SRC = Path(__file__).resolve().parents[2] / "src"

JOB = {"kind": "run", "experiment": "fig3_radio", "params": {}, "seed": 1,
       "code_version": "v"}


@pytest.fixture()
def store(tmp_path):
    return JobStore(tmp_path / "jobs.sqlite")


def _submit(store, job_id="j1", **kwargs):
    return store.submit(job_id, dict(JOB), **kwargs)


class TestSubmit:
    def test_first_submission_creates(self, store):
        receipt = _submit(store)
        assert receipt == {"job_id": "j1", "state": JobState.QUEUED,
                           "created": True, "requeued": False}
        record = store.get("j1")
        assert record.state == JobState.QUEUED
        assert record.spec == JOB
        assert record.attempts == 0

    def test_duplicate_submission_is_idempotent(self, store):
        _submit(store)
        receipt = _submit(store)
        assert receipt["created"] is False
        assert receipt["requeued"] is False
        assert store.counts()[JobState.QUEUED] == 1

    def test_resubmitting_a_failed_job_requeues_it(self, store):
        _submit(store)
        record = store.claim("w")
        for _ in range(3):
            store.fail(record.job_id, "w", "boom")
            record = store.claim("w") or record
        assert store.get("j1").state == JobState.FAILED
        receipt = _submit(store)
        assert receipt["created"] is False
        assert receipt["requeued"] is True
        fresh = store.get("j1")
        assert fresh.state == JobState.QUEUED
        assert fresh.attempts == 0
        assert fresh.error is None

    def test_memory_path_rejected(self):
        with pytest.raises(ValueError, match="memory"):
            JobStore(":memory:")


class TestClaim:
    def test_claim_marks_running(self, store):
        _submit(store)
        record = store.claim("w0")
        assert record.job_id == "j1"
        assert record.state == JobState.RUNNING
        assert record.worker == "w0"
        assert record.attempts == 1

    def test_oldest_job_first(self, store):
        for index in range(3):
            _submit(store, f"j{index}")
        assert store.claim("w").job_id == "j0"
        assert store.claim("w").job_id == "j1"

    def test_empty_queue_claims_nothing(self, store):
        assert store.claim("w") is None

    def test_concurrent_workers_never_double_claim(self, tmp_path):
        """The atomic-claim contract: N threads hammering claim() on one
        store each win disjoint jobs, every job exactly once."""
        store_path = tmp_path / "jobs.sqlite"
        setup = JobStore(store_path)
        total = 24
        for index in range(total):
            setup.submit(f"job-{index:03d}", dict(JOB))
        claims = {worker: [] for worker in range(6)}
        errors = []

        def drain(worker):
            worker_store = JobStore(store_path)
            while True:
                try:
                    record = worker_store.claim(f"w{worker}")
                except Exception as error:  # pragma: no cover - diagnostics
                    errors.append(error)
                    return
                if record is None:
                    return
                claims[worker].append(record.job_id)

        threads = [threading.Thread(target=drain, args=(worker,))
                   for worker in claims]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        claimed = [job for jobs in claims.values() for job in jobs]
        assert len(claimed) == total
        assert len(set(claimed)) == total  # no job claimed twice


class TestLifecycle:
    def test_finish_stores_the_result(self, store):
        _submit(store)
        record = store.claim("w")
        store.finish(record.job_id, "w", result_text='{"rows": []}',
                     cache_key="k" * 64)
        done = store.get("j1")
        assert done.state == JobState.DONE
        assert done.cache_key == "k" * 64
        assert store.result_text("j1") == '{"rows": []}'

    def test_result_text_requires_done(self, store):
        _submit(store)
        assert store.result_text("j1") is None
        assert store.result_text("missing") is None

    def test_fail_requeues_until_the_attempt_budget(self, store):
        _submit(store)
        outcomes = []
        for _ in range(3):
            record = store.claim("w")
            outcomes.append(store.fail(record.job_id, "w", "boom"))
        assert outcomes == [JobState.QUEUED, JobState.QUEUED,
                            JobState.FAILED]
        final = store.get("j1")
        assert final.state == JobState.FAILED
        assert final.attempts == 3
        assert "boom" in final.error

    def test_finish_by_a_stranger_is_ignored(self, store):
        """A worker whose claim was requeued from under it (presumed dead,
        then it woke up) must not overwrite the rightful worker's job."""
        _submit(store)
        store.claim("w0")
        store.requeue_stale(stale_after_s=-1)  # force the requeue
        record = store.claim("w1")
        assert store.finish(record.job_id, "w0", result_text="{}") is False
        assert store.get("j1").state == JobState.RUNNING
        assert store.finish(record.job_id, "w1", result_text="{}") is True

    def test_cancel_only_touches_queued_jobs(self, store):
        _submit(store)
        assert store.cancel("j1") is True
        assert store.get("j1").state == JobState.CANCELLED
        _submit(store, "j2")
        store.claim("w")
        assert store.cancel("j2") is False
        assert store.cancel("missing") is False

    def test_counts_are_zero_filled(self, store):
        counts = store.counts()
        assert counts == {state: 0 for state in JobState.ALL}
        _submit(store)
        assert store.counts()[JobState.QUEUED] == 1


class TestStatuses:
    def test_listing_encodes_like_the_records_status_documents(self, store):
        """The SQL-built listing is byte-identical, once encoded, to the
        status documents of the decoded records — for run and sweep jobs
        in every state, names with escapes included."""
        sweep = {"kind": "sweep", "sweep": "node_density", "quick": True,
                 "seed": 1, "code_version": "v"}
        _submit(store, "run-queued")
        store.submit("sweep-queued", dict(sweep))
        _submit(store, "run-done")
        store.claim("w1")  # run-queued
        store.claim("w2")  # sweep-queued
        store.claim("w3")  # run-done
        store.finish("run-done", "w3", result_text="{}", counters={})
        store.fail("sweep-queued", "w2", "boom \"quoted\" \u00b5W")
        store.submit("odd-name", dict(JOB, experiment="fig\"3 \u00b5"))
        store.submit("no-kind", {"experiment": "fig3_radio"})
        store.cancel("odd-name")

        def encode(documents):
            return json.dumps(documents, indent=2, sort_keys=True)

        expected = [record.to_status() for record in store.jobs()]
        assert encode(store.statuses()) == encode(expected)
        assert [status["name"] for status in store.statuses()] == [
            "fig3_radio", "node_density", "fig3_radio", "fig\"3 \u00b5",
            "fig3_radio"]

    def test_empty_store_lists_nothing(self, store):
        assert store.statuses() == []


class TestStaleRequeue:
    def test_silent_claims_requeue_after_the_deadline(self, tmp_path):
        now = [1000.0]
        store = JobStore(tmp_path / "jobs.sqlite", clock=lambda: now[0])
        _submit(store)
        store.claim("ghost")
        assert store.requeue_stale(stale_after_s=30) == {"requeued": 0,
                                                         "failed": 0}
        now[0] += 31
        assert store.requeue_stale(stale_after_s=30) == {"requeued": 1,
                                                         "failed": 0}
        record = store.get("j1")
        assert record.state == JobState.QUEUED
        assert "worker lost" in record.error

    def test_heartbeats_keep_a_claim_alive(self, tmp_path):
        now = [1000.0]
        store = JobStore(tmp_path / "jobs.sqlite", clock=lambda: now[0])
        _submit(store)
        store.claim("w")
        now[0] += 25
        assert store.heartbeat(["w"]) == 1
        now[0] += 25  # 50s since claim, 25s since heartbeat
        assert store.requeue_stale(stale_after_s=30)["requeued"] == 0

    def test_stale_requeue_respects_the_attempt_budget(self, tmp_path):
        now = [0.0]
        store = JobStore(tmp_path / "jobs.sqlite", max_attempts=2,
                         clock=lambda: now[0])
        _submit(store)
        for expected in ({"requeued": 1, "failed": 0},
                         {"requeued": 0, "failed": 1}):
            store.claim("ghost")
            now[0] += 100
            assert store.requeue_stale(stale_after_s=30) == expected
        assert store.get("j1").state == JobState.FAILED

    def test_heartbeat_from_a_stranger_is_rejected(self, store):
        _submit(store)
        store.claim("w0")
        assert store.heartbeat(["intruder"]) == 0
        assert store.heartbeat([]) == 0


#: Run in a second interpreter: act on job ``j1`` as this process's worker.
STRANGER = """
import json, sys
from repro.service import JobStore, worker_identity
store = JobStore(sys.argv[1])
me = worker_identity()
print(json.dumps([me, store.heartbeat([me]),
                  store.finish("j1", me, result_text="stolen"),
                  store.fail("j1", me, "boom")]))
"""


class TestWorkerIdentity:
    def test_another_process_cannot_touch_a_claim(self, tmp_path):
        """Every ``serve`` process used to name its first worker
        ``worker-0``, so two processes on one store could heartbeat,
        finish or fail each other's claims.  Ids now carry the pid."""
        store = JobStore(tmp_path / "jobs.sqlite")
        _submit(store)
        me = worker_identity()
        store.claim(me)
        completed = subprocess.run(
            [sys.executable, "-c", STRANGER, str(store.path)],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert completed.returncode == 0, completed.stderr
        stranger, beats, finished, failed = json.loads(completed.stdout)
        assert stranger != me
        assert (beats, finished, failed) == (0, False, None)
        record = store.get("j1")
        assert (record.state, record.worker) == (JobState.RUNNING, me)
        assert store.finish("j1", me, result_text="mine") is True


class TestWorkerRegistry:
    def test_retiring_a_dead_worker_requeues_its_claim_at_once(self, store):
        _submit(store)
        store.register_worker("w0", "sup", 100)
        store.claim("w0")
        assert store.retire_worker("w0", lost=True) == {"requeued": 1,
                                                        "failed": 0}
        record = store.get("j1")
        assert record.state == JobState.QUEUED
        assert record.error == "worker lost"
        [worker] = store.workers("sup")
        assert worker.alive is False
        assert worker.counters == {"service.workers.lost": 1}

    def test_retiring_respects_the_attempt_budget(self, tmp_path):
        store = JobStore(tmp_path / "jobs.sqlite", max_attempts=1)
        _submit(store)
        store.claim("w0")
        assert store.retire_worker("w0", lost=True) == {"requeued": 0,
                                                        "failed": 1}
        assert store.get("j1").state == JobState.FAILED

    def test_a_drained_worker_is_not_lost(self, store):
        store.register_worker("w0", "sup", 100)
        store.publish_counters("w0", {"service.jobs.done": 2}, {})
        assert store.retire_worker("w0", lost=False) == {"requeued": 0,
                                                         "failed": 0}
        [worker] = store.workers()
        assert (worker.alive, worker.counters) == \
            (False, {"service.jobs.done": 2})

    def test_registry_is_per_supervisor(self, store):
        store.register_worker("a:1", "sup-a", 1)
        store.register_worker("b:2", "sup-b", 2)
        assert [w.worker_id for w in store.workers("sup-a")] == ["a:1"]
        assert [w.worker_id for w in store.workers()] == ["a:1", "b:2"]

    def test_registration_keeps_counters_the_worker_already_published(
            self, store):
        store.publish_counters("w0", {"service.jobs.done": 1},
                               {"lock.acquired": 1})
        store.register_worker("w0", "sup", 100)
        [worker] = store.workers("sup")
        assert worker.counters == {"service.jobs.done": 1}
        assert worker.backend_counters == {"lock.acquired": 1}

    def test_a_reused_id_starts_over(self, store):
        store.register_worker("w0", "old", 100)
        store.publish_counters("w0", {"service.jobs.done": 5}, {})
        store.retire_worker("w0", lost=False)
        store.register_worker("w0", "new", 100)
        [worker] = store.workers()
        assert (worker.supervisor, worker.alive, worker.counters) == \
            ("new", True, {})

    def test_finish_publishes_counters_only_when_it_finishes(self, store):
        _submit(store)
        store.claim("w0")
        assert store.finish("j1", "w1", result_text="x",
                            counters={"service.jobs.done": 1}) is False
        assert store.workers() == []
        assert store.finish("j1", "w0", result_text="x",
                            counters={"service.jobs.done": 1},
                            backend_counters={"lock.acquired": 1}) is True
        [worker] = store.workers()
        assert worker.counters == {"service.jobs.done": 1}


class TestChanges:
    def test_a_cursor_returns_only_later_changes(self, store):
        _submit(store, "a")
        _submit(store, "b")
        cursor, documents = store.changes(0)
        assert [document["job_id"] for document in documents] == ["a", "b"]
        assert store.changes(cursor) == (cursor, [])
        store.claim("w1")
        later, documents = store.changes(cursor)
        assert later > cursor
        assert [(document["job_id"], document["state"])
                for document in documents] == [("a", JobState.RUNNING)]

    def test_heartbeats_and_live_duplicates_change_nothing(self, store):
        _submit(store, "a")
        store.claim("w1")
        cursor, _ = store.changes(0)
        assert store.heartbeat(["w1"]) == 1
        assert _submit(store, "a")["created"] is False
        assert store.changes(cursor) == (cursor, [])

    def test_statuses_are_the_changes_since_zero(self, store):
        _submit(store, "a")
        store.submit("b", {"kind": "sweep", "sweep": "node_density"})
        assert store.statuses() == store.changes(0)[1]


#: The schema of a store written before the ``changed`` column.
_OLD_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    job_id TEXT PRIMARY KEY,
    seq INTEGER,
    spec TEXT NOT NULL,
    state TEXT NOT NULL,
    attempts INTEGER NOT NULL DEFAULT 0,
    max_attempts INTEGER NOT NULL,
    worker TEXT,
    submitted_unix_s REAL NOT NULL,
    heartbeat_unix_s REAL,
    error TEXT,
    cache_key TEXT,
    result TEXT
);
CREATE INDEX IF NOT EXISTS jobs_by_state ON jobs (state, seq);
CREATE TABLE IF NOT EXISTS workers (
    worker_id TEXT PRIMARY KEY,
    supervisor TEXT,
    pid INTEGER,
    exited_unix_s REAL,
    counters TEXT NOT NULL DEFAULT '{}',
    backend_counters TEXT NOT NULL DEFAULT '{}'
);
"""


class TestMigration:
    @pytest.fixture()
    def old_store(self, tmp_path):
        """A store file with the old schema, one job in every state."""
        path = tmp_path / "old.sqlite"
        rows = [("queued", JobState.QUEUED, 0, None, None),
                ("running", JobState.RUNNING, 1, "w-old", None),
                ("done", JobState.DONE, 1, None, '{"rows": []}'),
                ("failed", JobState.FAILED, 3, None, None),
                ("cancelled", JobState.CANCELLED, 0, None, None)]
        connection = sqlite3.connect(path)
        with connection:
            connection.executescript(_OLD_SCHEMA)
            for seq, (job_id, state, attempts, worker, result) in \
                    enumerate(rows, start=1):
                connection.execute(
                    "INSERT INTO jobs (job_id, seq, spec, state, attempts, "
                    "max_attempts, worker, submitted_unix_s, "
                    "heartbeat_unix_s, result) "
                    "VALUES (?, ?, ?, ?, ?, 3, ?, 1000.0, 1000.0, ?)",
                    (job_id, seq, json.dumps(JOB), state, attempts, worker,
                     result))
        connection.close()
        return path

    def test_old_jobs_are_listed_claimed_and_finished(self, old_store):
        store = JobStore(old_store)
        assert [(status["job_id"], status["state"])
                for status in store.statuses()] == [
            ("queued", JobState.QUEUED), ("running", JobState.RUNNING),
            ("done", JobState.DONE), ("failed", JobState.FAILED),
            ("cancelled", JobState.CANCELLED)]
        assert store.result_text("done") == '{"rows": []}'
        cursor, _ = store.changes(0)
        assert store.claim("w1").job_id == "queued"
        assert store.finish("queued", "w1", result_text="new") is True
        assert store.finish("running", "w-old", result_text="old") is True
        later, documents = store.changes(cursor)
        assert [document["job_id"] for document in documents] == [
            "queued", "running"]
        assert store.submit("failed", dict(JOB))["requeued"] is True
        assert store.changes(later)[1][0]["job_id"] == "failed"
        assert store.counts()[JobState.DONE] == 3

    def test_a_second_open_changes_nothing(self, old_store):
        JobStore(old_store)

        def snapshot():
            connection = sqlite3.connect(old_store)
            try:
                return (connection.execute(
                            "SELECT sql FROM sqlite_master ORDER BY name"
                        ).fetchall(),
                        connection.execute(
                            "SELECT job_id, seq, changed FROM jobs "
                            "ORDER BY seq").fetchall())
            finally:
                connection.close()

        before = snapshot()
        assert [changed for _, seq, changed in before[1]] == [
            seq for _, seq, _ in before[1]]
        JobStore(old_store).close()
        assert snapshot() == before


class TestConnections:
    def test_concurrent_threads_never_share_a_connection(self, store):
        _submit(store)
        barrier = threading.Barrier(2, timeout=10)
        held = []

        def hold():
            with store._connection() as connection:
                held.append(connection)
                barrier.wait()
                connection.execute("SELECT COUNT(*) FROM jobs").fetchone()
                barrier.wait()

        threads = [threading.Thread(target=hold) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        assert len(held) == 2 and held[0] is not held[1]

    def test_transactions_from_many_threads_stay_atomic(self, store):
        """More threads than cores, switching often: each submits, claims
        and finishes its own jobs while reading listings.  A connection
        shared by two threads mid-transaction would raise or lose
        updates."""
        threads_n, jobs_n = 8, 12
        errors = []

        def churn(index):
            try:
                for job in range(jobs_n):
                    job_id = f"t{index}-{job}"
                    store.submit(job_id, dict(JOB))
                    record = store.claim(f"w{index}")
                    assert record is not None
                    assert store.finish(record.job_id, f"w{index}",
                                        result_text="{}") is True
                    store.changes(0)
            except Exception as error:  # pragma: no cover - diagnostics
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=churn, args=(index,))
                       for index in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors
        assert store.counts()[JobState.DONE] == threads_n * jobs_n
        assert all(record.attempts == 1 for record in store.jobs())

    def test_a_connection_that_raised_is_not_reused(self, store):
        with pytest.raises(sqlite3.OperationalError):
            with store._connection() as connection:
                broken = connection
                connection.execute("SELECT * FROM no_such_table")
        with store._connection() as connection:
            assert connection is not broken
        _submit(store)
        assert store.counts()[JobState.QUEUED] == 1

    def test_the_store_works_after_close(self, store):
        _submit(store, "a")
        store.close()
        _submit(store, "b")
        assert [record.job_id for record in store.jobs()] == ["a", "b"]

    def test_a_forked_child_opens_its_own_connection(self, tmp_path):
        completed = subprocess.run(
            [sys.executable, "-c", FORKED_CHILD,
             str(tmp_path / "jobs.sqlite")],
            capture_output=True, text=True, timeout=60,
            env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert completed.returncode == 0, completed.stderr
        assert json.loads(completed.stdout) == {
            "child": 0, "parent": ["mine", "child's"], "done": 1}


#: Uses a store, forks while its connection is pooled, and lets the child
#: use the same ``JobStore`` object; prints what both sides then see.
FORKED_CHILD = """
import json, os, sys
from repro.service import JobStore
store = JobStore(sys.argv[1])
store.submit("mine", {"kind": "run", "experiment": "fig3_radio"})
pid = os.fork()
if pid == 0:
    status = 1
    try:
        store.submit("child's", {"kind": "run", "experiment": "fig3_radio"})
        record = store.claim("child")
        if store.finish(record.job_id, "child", result_text="{}"):
            status = 0
    finally:
        os._exit(status)
_, status = os.waitpid(pid, 0)
print(json.dumps({"child": os.waitstatus_to_exitcode(status),
                  "parent": [r.job_id for r in store.jobs()],
                  "done": store.counts()["done"]}))
"""
