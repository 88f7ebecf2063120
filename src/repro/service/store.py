"""Sqlite-backed job queue with atomic claim semantics.

One :class:`JobStore` file is the coordination point of the service: the
HTTP frontend submits into it, N worker processes drain it, and every
mutation is one short ``BEGIN IMMEDIATE`` transaction, so claims are
atomic — two workers can never claim the same job, whatever their process
topology.  The store keeps:

* the job's canonical spec payload (what a worker needs to execute it),
* its :class:`~repro.service.jobs.JobState` lifecycle with a bounded
  ``attempts`` counter (crash requeue stops at ``max_attempts``),
* liveness (``worker``, ``heartbeat_unix_s``) so a supervisor can
  :meth:`retire_worker` the claims of a worker it saw die, and peers can
  :meth:`requeue_stale` work whose whole ``serve`` process went silent,
* on completion, the rendered result text — the exact bytes
  ``GET /v1/jobs/{id}/result`` serves,
* and the worker registry: which supervisor forked which worker (pid,
  alive or exited) and each worker's observability counters, published
  after every job — the only way they leave a worker process.

Durability choices: WAL journal mode (readers never block the single
writer), a generous busy timeout instead of hand-rolled retry loops, and a
fresh connection per operation, so no connection is ever open across a
``fork`` and the store is safe to share across threads without
connection pooling.
"""

from __future__ import annotations

import json
import sqlite3
import time
from contextlib import closing, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import (Any, Callable, Dict, Iterable, Iterator, List, Mapping,
                    Optional, Union)

from repro.service.jobs import JobState

#: Default bound on execution attempts before a job is marked failed.
DEFAULT_MAX_ATTEMPTS = 3

_SCHEMA = """
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

_COLUMNS = ("job_id", "seq", "spec", "state", "attempts", "max_attempts",
            "worker", "submitted_unix_s", "heartbeat_unix_s", "error",
            "cache_key")


#: Keys of a job's status document (:meth:`JobRecord.to_status`), in the
#: column order of :data:`_STATUS_QUERY`.
_STATUS_KEYS = ("job_id", "state", "kind", "name", "attempts",
                "max_attempts", "worker", "error", "cache_key")

#: Every job's status document, oldest first.  ``kind`` and ``name`` are
#: read out of the stored spec by sqlite, so a listing decodes no spec.
_STATUS_QUERY = """
SELECT job_id, state, json_extract(spec, '$.kind'),
       CASE WHEN json_extract(spec, '$.kind') = 'sweep'
            THEN json_extract(spec, '$.sweep')
            ELSE json_extract(spec, '$.experiment') END,
       attempts, max_attempts, worker, error, cache_key
FROM jobs ORDER BY seq
"""


@dataclass(frozen=True)
class JobRecord:
    """One job row (without the result text — fetch that separately)."""

    job_id: str
    seq: int
    spec: Dict[str, Any]
    state: str
    attempts: int
    max_attempts: int
    worker: Optional[str]
    submitted_unix_s: float
    heartbeat_unix_s: Optional[float]
    error: Optional[str]
    cache_key: Optional[str]

    def to_status(self) -> Dict[str, Any]:
        """The JSON status document ``GET /v1/jobs/{id}`` serves."""
        return {
            "job_id": self.job_id,
            "state": self.state,
            "kind": self.spec.get("kind"),
            "name": self.spec.get("sweep" if self.spec.get("kind") == "sweep"
                                  else "experiment"),
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "worker": self.worker,
            "error": self.error,
            "cache_key": self.cache_key,
        }


@dataclass(frozen=True)
class WorkerRecord:
    """One worker of the registry: identity, liveness and counters.

    ``counters`` are the worker tracer's (``service.jobs.*`` outcomes and
    the engine's ``cache.*`` events); ``backend_counters`` those of the
    worker's own cache backend (``lock.*``).
    """

    worker_id: str
    supervisor: Optional[str]
    pid: Optional[int]
    alive: bool
    counters: Dict[str, int]
    backend_counters: Dict[str, int]


def _record(row) -> JobRecord:
    values = dict(zip(_COLUMNS, row))
    values["spec"] = json.loads(values["spec"])
    return JobRecord(**values)


class JobStore:
    """The sqlite job queue (see the module docstring).

    Parameters
    ----------
    path:
        Database file; parent directories are created.  ``":memory:"`` is
        rejected — a memory store cannot coordinate anything.
    max_attempts:
        Default execution-attempt bound of submitted jobs.
    clock:
        Unix-time source (injectable for the staleness tests).
    """

    def __init__(self, path: Union[str, Path], *,
                 max_attempts: int = DEFAULT_MAX_ATTEMPTS,
                 clock: Callable[[], float] = time.time):
        if str(path) == ":memory:":
            raise ValueError("JobStore needs a shared database file; "
                             "':memory:' cannot coordinate workers")
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.max_attempts = int(max_attempts)
        self._clock = clock
        with self._connect() as connection:
            connection.executescript(_SCHEMA)

    def _connect(self) -> sqlite3.Connection:
        connection = sqlite3.connect(self.path, timeout=30.0,
                                     isolation_level=None)
        connection.execute("PRAGMA journal_mode=WAL")
        connection.execute("PRAGMA synchronous=NORMAL")
        return connection

    @contextmanager
    def _transaction(self) -> Iterator[sqlite3.Cursor]:
        """One ``BEGIN IMMEDIATE`` write transaction (atomic, exclusive)."""
        with closing(self._connect()) as connection:
            connection.execute("BEGIN IMMEDIATE")
            try:
                yield connection.cursor()
            except BaseException:
                connection.execute("ROLLBACK")
                raise
            connection.execute("COMMIT")

    # -- submission ---------------------------------------------------------------
    def submit(self, job_id: str, spec_payload: Dict[str, Any], *,
               cache_key: Optional[str] = None,
               max_attempts: Optional[int] = None) -> Dict[str, Any]:
        """Enqueue a job (idempotent — duplicate specs share one id).

        A new id inserts a ``queued`` row.  An existing id is *not*
        duplicated: live or finished jobs are returned as they are (the
        dedup path — the caller polls the same id everyone else does),
        while ``failed``/``cancelled`` jobs are requeued with a fresh
        attempt budget.  Returns ``{"job_id", "state", "created",
        "requeued"}``.
        """
        now = self._clock()
        with self._transaction() as cursor:
            cursor.execute("SELECT state FROM jobs WHERE job_id = ?",
                           (job_id,))
            row = cursor.fetchone()
            if row is None:
                cursor.execute("SELECT COALESCE(MAX(seq), 0) + 1 FROM jobs")
                seq = cursor.fetchone()[0]
                cursor.execute(
                    "INSERT INTO jobs (job_id, seq, spec, state, attempts, "
                    "max_attempts, submitted_unix_s, cache_key) "
                    "VALUES (?, ?, ?, ?, 0, ?, ?, ?)",
                    (job_id, seq, json.dumps(spec_payload, sort_keys=True),
                     JobState.QUEUED,
                     self.max_attempts if max_attempts is None
                     else int(max_attempts),
                     now, cache_key))
                return {"job_id": job_id, "state": JobState.QUEUED,
                        "created": True, "requeued": False}
            state = row[0]
            if state in (JobState.FAILED, JobState.CANCELLED):
                cursor.execute(
                    "UPDATE jobs SET state = ?, attempts = 0, error = NULL, "
                    "worker = NULL, submitted_unix_s = ? WHERE job_id = ?",
                    (JobState.QUEUED, now, job_id))
                return {"job_id": job_id, "state": JobState.QUEUED,
                        "created": False, "requeued": True}
            return {"job_id": job_id, "state": state, "created": False,
                    "requeued": False}

    # -- worker protocol ----------------------------------------------------------
    def claim(self, worker: str) -> Optional[JobRecord]:
        """Atomically claim the oldest queued job for ``worker``.

        The SELECT and the guarded UPDATE run inside one ``BEGIN
        IMMEDIATE`` transaction, so no two workers — threads or separate
        processes — can claim the same row.  Claiming increments
        ``attempts``.  Returns the claimed record, or ``None`` when the
        queue is empty.
        """
        now = self._clock()
        with self._transaction() as cursor:
            cursor.execute(
                "SELECT job_id FROM jobs WHERE state = ? "
                "ORDER BY seq LIMIT 1", (JobState.QUEUED,))
            row = cursor.fetchone()
            if row is None:
                return None
            job_id = row[0]
            cursor.execute(
                "UPDATE jobs SET state = ?, worker = ?, "
                "heartbeat_unix_s = ?, attempts = attempts + 1 "
                "WHERE job_id = ? AND state = ?",
                (JobState.RUNNING, worker, now, job_id, JobState.QUEUED))
            if cursor.rowcount != 1:  # pragma: no cover - defended by the
                return None           # IMMEDIATE transaction
            cursor.execute(
                f"SELECT {', '.join(_COLUMNS)} FROM jobs WHERE job_id = ?",
                (job_id,))
            return _record(cursor.fetchone())

    def heartbeat(self, workers: Iterable[str]) -> int:
        """Refresh the liveness stamp of every running claim the given
        workers hold; returns how many claims were refreshed."""
        workers = list(workers)
        if not workers:
            return 0
        marks = ", ".join("?" * len(workers))
        with self._transaction() as cursor:
            cursor.execute(
                "UPDATE jobs SET heartbeat_unix_s = ? "
                f"WHERE state = ? AND worker IN ({marks})",
                (self._clock(), JobState.RUNNING, *workers))
            return cursor.rowcount

    def finish(self, job_id: str, worker: str, *, result_text: str,
               cache_key: Optional[str] = None,
               counters: Optional[Mapping[str, int]] = None,
               backend_counters: Optional[Mapping[str, int]] = None
               ) -> bool:
        """Complete a running claim with its rendered result text.

        ``counters``/``backend_counters``, when given, are published for
        ``worker`` in the same transaction (see :meth:`publish_counters`),
        so a reader that sees the job done also sees it counted.  Returns
        ``False`` — and publishes nothing — when the claim was no longer
        held.
        """
        with self._transaction() as cursor:
            cursor.execute(
                "UPDATE jobs SET state = ?, result = ?, cache_key = "
                "COALESCE(?, cache_key), error = NULL "
                "WHERE job_id = ? AND worker = ? AND state = ?",
                (JobState.DONE, result_text, cache_key, job_id, worker,
                 JobState.RUNNING))
            if cursor.rowcount != 1:
                return False
            if counters is not None:
                _publish(cursor, worker, counters, backend_counters or {})
            return True

    def fail(self, job_id: str, worker: str, error: str) -> Optional[str]:
        """Record a failed attempt; requeue while attempts remain.

        Returns the job's new state (``queued`` for a retry, ``failed``
        once the attempt budget is spent), or ``None`` when the claim was
        no longer held.
        """
        with self._transaction() as cursor:
            cursor.execute(
                "SELECT attempts, max_attempts FROM jobs "
                "WHERE job_id = ? AND worker = ? AND state = ?",
                (job_id, worker, JobState.RUNNING))
            row = cursor.fetchone()
            if row is None:
                return None
            attempts, max_attempts = row
            new_state = (JobState.FAILED if attempts >= max_attempts
                         else JobState.QUEUED)
            cursor.execute(
                "UPDATE jobs SET state = ?, error = ?, worker = NULL "
                "WHERE job_id = ?",
                (new_state, error, job_id))
            return new_state

    def requeue_stale(self, stale_after_s: float) -> Dict[str, int]:
        """Recover jobs whose worker stopped heartbeating (crash requeue).

        A running job whose heartbeat is older than ``stale_after_s``
        seconds goes back to ``queued`` while attempts remain, else to
        ``failed`` (error ``"worker lost"``).  Returns
        ``{"requeued": n, "failed": m}``.
        """
        cutoff = self._clock() - stale_after_s
        with self._transaction() as cursor:
            return _requeue_lost(cursor, "heartbeat_unix_s < ?", (cutoff,))

    # -- worker registry ----------------------------------------------------------
    def register_worker(self, worker: str, supervisor: str,
                        pid: int) -> None:
        """Record a live worker forked by ``supervisor``.

        Counters the new process already published are kept; an id some
        earlier supervisor registered (a reused pid) starts over.
        """
        with self._transaction() as cursor:
            cursor.execute(
                "INSERT INTO workers (worker_id, supervisor, pid) "
                "VALUES (?, ?, ?) ON CONFLICT (worker_id) DO UPDATE SET "
                "counters = CASE WHEN supervisor IS NULL THEN counters "
                "ELSE '{}' END, "
                "backend_counters = CASE WHEN supervisor IS NULL "
                "THEN backend_counters ELSE '{}' END, "
                "supervisor = excluded.supervisor, pid = excluded.pid, "
                "exited_unix_s = NULL",
                (worker, supervisor, int(pid)))

    def retire_worker(self, worker: str, *, lost: bool) -> Dict[str, int]:
        """Mark ``worker`` exited and release the claims it still holds.

        Its running jobs go back to ``queued`` at once (``failed`` when
        the attempt budget is spent), without waiting for their heartbeats
        to go stale.  ``lost=True`` (the worker died rather than drained)
        adds ``service.workers.lost`` to its counters.  Returns
        ``{"requeued": n, "failed": m}``.
        """
        with self._transaction() as cursor:
            outcome = _requeue_lost(cursor, "worker = ?", (worker,))
            cursor.execute("UPDATE workers SET exited_unix_s = ? "
                           "WHERE worker_id = ?", (self._clock(), worker))
            if lost:
                cursor.execute("SELECT counters FROM workers "
                               "WHERE worker_id = ?", (worker,))
                row = cursor.fetchone()
                counters = json.loads(row[0]) if row else {}
                counters["service.workers.lost"] = \
                    counters.get("service.workers.lost", 0) + 1
                cursor.execute("UPDATE workers SET counters = ? "
                               "WHERE worker_id = ?",
                               (json.dumps(counters, sort_keys=True), worker))
            return outcome

    def publish_counters(self, worker: str, counters: Mapping[str, int],
                         backend_counters: Mapping[str, int]) -> None:
        """Replace ``worker``'s published counters with these totals."""
        with self._transaction() as cursor:
            _publish(cursor, worker, counters, backend_counters)

    def workers(self, supervisor: Optional[str] = None
                ) -> List[WorkerRecord]:
        """The registry (optionally one supervisor's workers), by id."""
        query = ("SELECT worker_id, supervisor, pid, exited_unix_s, "
                 "counters, backend_counters FROM workers")
        args: tuple = ()
        if supervisor is not None:
            query += " WHERE supervisor = ?"
            args = (supervisor,)
        with closing(self._connect()) as connection:
            rows = connection.execute(query + " ORDER BY worker_id",
                                      args).fetchall()
        return [WorkerRecord(worker_id=worker_id, supervisor=owner, pid=pid,
                             alive=exited is None,
                             counters=json.loads(counters),
                             backend_counters=json.loads(backend))
                for worker_id, owner, pid, exited, counters, backend in rows]

    # -- client protocol ----------------------------------------------------------
    def cancel(self, job_id: str) -> bool:
        """Cancel a queued job (running/terminal jobs are left alone)."""
        with self._transaction() as cursor:
            cursor.execute(
                "UPDATE jobs SET state = ? WHERE job_id = ? AND state = ?",
                (JobState.CANCELLED, job_id, JobState.QUEUED))
            return cursor.rowcount == 1

    def get(self, job_id: str) -> Optional[JobRecord]:
        """One job's record, or ``None`` for an unknown id."""
        with closing(self._connect()) as connection:
            cursor = connection.execute(
                f"SELECT {', '.join(_COLUMNS)} FROM jobs WHERE job_id = ?",
                (job_id,))
            row = cursor.fetchone()
            return None if row is None else _record(row)

    def result_text(self, job_id: str) -> Optional[str]:
        """The stored result text of a done job (``None`` otherwise)."""
        with closing(self._connect()) as connection:
            cursor = connection.execute(
                "SELECT result FROM jobs WHERE job_id = ? AND state = ?",
                (job_id, JobState.DONE))
            row = cursor.fetchone()
            return None if row is None else row[0]

    def jobs(self, state: Optional[str] = None) -> List[JobRecord]:
        """Every job record (optionally filtered by state), oldest first."""
        query = f"SELECT {', '.join(_COLUMNS)} FROM jobs"
        args: tuple = ()
        if state is not None:
            query += " WHERE state = ?"
            args = (state,)
        query += " ORDER BY seq"
        with closing(self._connect()) as connection:
            return [_record(row)
                    for row in connection.execute(query, args).fetchall()]

    def statuses(self) -> List[Dict[str, Any]]:
        """Every job's :meth:`JobRecord.to_status` document, oldest first,
        built in SQL (the ``GET /v1/jobs`` listing)."""
        with closing(self._connect()) as connection:
            rows = connection.execute(_STATUS_QUERY).fetchall()
        return [dict(zip(_STATUS_KEYS, row)) for row in rows]

    def counts(self) -> Dict[str, int]:
        """Job counts per lifecycle state (zero-filled, stable order)."""
        with closing(self._connect()) as connection:
            rows = connection.execute(
                "SELECT state, COUNT(*) FROM jobs GROUP BY state").fetchall()
        counts = {state: 0 for state in JobState.ALL}
        counts.update(dict(rows))
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"JobStore(path={str(self.path)!r})"


def _requeue_lost(cursor: sqlite3.Cursor, where: str,
                  args: tuple) -> Dict[str, int]:
    """Send the running jobs matching ``where`` back to ``queued`` (or to
    ``failed`` once their attempts are spent), error ``"worker lost"``."""
    outcome = {"requeued": 0, "failed": 0}
    cursor.execute(
        "SELECT job_id, attempts, max_attempts FROM jobs "
        f"WHERE state = ? AND {where}", (JobState.RUNNING, *args))
    for job_id, attempts, max_attempts in cursor.fetchall():
        state = (JobState.FAILED if attempts >= max_attempts
                 else JobState.QUEUED)
        cursor.execute(
            "UPDATE jobs SET state = ?, worker = NULL, "
            "error = COALESCE(error, 'worker lost') "
            "WHERE job_id = ? AND state = ?",
            (state, job_id, JobState.RUNNING))
        outcome["requeued" if state == JobState.QUEUED
                else "failed"] += cursor.rowcount
    return outcome


def _publish(cursor: sqlite3.Cursor, worker: str,
             counters: Mapping[str, int],
             backend_counters: Mapping[str, int]) -> None:
    cursor.execute(
        "INSERT INTO workers (worker_id, counters, backend_counters) "
        "VALUES (?, ?, ?) ON CONFLICT (worker_id) DO UPDATE SET "
        "counters = excluded.counters, "
        "backend_counters = excluded.backend_counters",
        (worker, json.dumps(dict(counters), sort_keys=True),
         json.dumps(dict(backend_counters), sort_keys=True)))
