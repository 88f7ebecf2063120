"""Stdlib-only JSON HTTP API over the job store.

The frontend is a :class:`http.server.ThreadingHTTPServer` — no new
runtime dependency — whose handler closes over a :class:`ServiceState`
(session, store, and the supervisor whose workers it reports).  Under
``python -m repro serve`` it runs in its own forked process; the workers
are other processes, so everything it reports about them — liveness and
counters — it reads from the job store's worker registry.  Routes (all
under ``/v1``):

=========================== ====================================================
``POST /v1/jobs``           Submit a job spec; canonicalisation dedups — an
                            equivalent spec returns the *same* job id with
                            ``"created": false``.
``GET /v1/jobs/{id}``       Lifecycle status (state, attempts, worker, error).
``GET /v1/jobs/{id}/result`` The stored result, byte-identical to
                            ``repro run --output json`` (run jobs) or the
                            sweep JSON artifact (sweep jobs).  409 while the
                            job is still queued/running, 500 when it failed.
``POST /v1/jobs/{id}/cancel`` Cancel a queued job (running jobs finish).
``GET /v1/jobs``            Queue listing with per-state counts, both read
                            from one snapshot of the store.
``GET /v1/health``          Liveness, live workers and their pids, queue
                            counts, code version.
``GET /v1/metrics``         Merged worker observability counters.
=========================== ====================================================

Submission canonicalises *before* enqueueing, so bad specs (unknown
experiment, invalid parameter, missing seed policy) fail fast with a 400
carrying the engine's own did-you-mean message — a worker never burns an
attempt on them.

The listing is kept incrementally: the frontend holds every job's encoded
status document and re-encodes only the jobs the store reports changed
since its last poll (:meth:`JobStore.changes`).  Replies are compact JSON
with sorted keys, and connections are kept alive (``HTTP/1.1``, with
Nagle's algorithm off so a small reply is not held back for the client's
delayed ACK).
"""

from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.api import (ParameterValueError, Session, UnknownExperimentError,
                       UnknownParameterError, UnknownSweepError, code_version)
from repro.service.jobs import JobSpec, JobSpecError, JobState, canonicalize
from repro.service.store import JobStore, WorkerRecord

logger = logging.getLogger(__name__)

#: Largest accepted submission body (a param mapping, not a data upload).
MAX_BODY_BYTES = 1 << 20

#: Submission errors that map to 400 (client mistake, not server fault).
#: The engine's typed errors are ValueError/KeyError subclasses
#: (ParameterValueError, JobSpecError, UnknownExperimentError, ...) — the
#: broad trio also covers malformed override shapes in sweep resolution.
_BAD_SPEC_ERRORS = (JobSpecError, UnknownExperimentError,
                    UnknownParameterError, UnknownSweepError,
                    ParameterValueError, ValueError, KeyError, TypeError)


class ServiceState:
    """Everything the HTTP handler needs, bundled for closure capture.

    ``supervisor`` is the registry key of the process that forks this
    service's workers; ``None`` serves the frontend alone (no workers, no
    worker counters).  ``on_queued``, when set, is called after every
    submission that leaves its job queued (the supervisor's worker
    wake-up).
    """

    def __init__(self, session: Session, store: JobStore,
                 supervisor: Optional[str] = None):
        self.session = session
        self.store = store
        self.supervisor = supervisor
        self.on_queued: Optional[Callable[[], None]] = None
        # The listing: the store cursor it is current to, each job's
        # (state, encoded status document) oldest first, the per-state
        # tally of those states and the encoded reply.
        self._listing_lock = threading.Lock()
        self._cursor = 0
        self._jobs: Dict[str, Tuple[str, str]] = {}
        self._counts = {state: 0 for state in JobState.ALL}
        self._listing = _encode({"counts": self._counts, "jobs": []})

    def _workers(self) -> List[WorkerRecord]:
        if self.supervisor is None:
            return []
        return self.store.workers(self.supervisor)

    # -- operations (HTTP-independent, also used by tests) ------------------------
    def submit(self, payload: Any) -> Tuple[int, Dict[str, Any]]:
        """Canonicalise and enqueue one submission payload."""
        try:
            spec = JobSpec.from_payload(payload)
            job = canonicalize(self.session, spec)
        except _BAD_SPEC_ERRORS as error:
            message = str(error)
            if isinstance(error, KeyError) and error.args:
                message = str(error.args[0])
            return 400, {"error": message}
        receipt = self.store.submit(job.job_id, job.payload,
                                    cache_key=job.cache_key)
        if receipt["state"] == JobState.QUEUED and self.on_queued is not None:
            self.on_queued()
        return (201 if receipt["created"] else 200), receipt

    def status(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        record = self.store.get(job_id)
        if record is None:
            return 404, {"error": f"unknown job {job_id}"}
        return 200, record.to_status()

    def result(self, job_id: str) -> Tuple[int, Any]:
        """(status, body); a ``str`` body is served raw (pre-rendered JSON)."""
        record = self.store.get(job_id)
        if record is None:
            return 404, {"error": f"unknown job {job_id}"}
        if record.state == "done":
            return 200, self.store.result_text(job_id)
        if record.state == "failed":
            return 500, {"error": record.error or "job failed",
                         "job": record.to_status()}
        return 409, {"error": f"job is {record.state}; result not ready",
                     "job": record.to_status()}

    def cancel(self, job_id: str) -> Tuple[int, Dict[str, Any]]:
        record = self.store.get(job_id)
        if record is None:
            return 404, {"error": f"unknown job {job_id}"}
        if self.store.cancel(job_id):
            return 200, {"job_id": job_id, "state": "cancelled"}
        return 409, {"error": f"job is {record.state}; only queued jobs "
                              "can be cancelled",
                     "job": record.to_status()}

    def listing(self) -> Tuple[int, str]:
        """The encoded ``{"counts", "jobs"}`` listing, every job oldest
        first; the counts tally the listed states.  Only the jobs changed
        since the previous call are read and re-encoded."""
        with self._listing_lock:
            self._cursor, changed = self.store.changes(self._cursor)
            if changed:
                for document in changed:
                    job_id, state = document["job_id"], document["state"]
                    previous = self._jobs.get(job_id)
                    if previous is not None:
                        self._counts[previous[0]] -= 1
                    self._counts[state] += 1
                    self._jobs[job_id] = (state, _encode(document))
                self._listing = (
                    '{"counts": ' + _encode(self._counts) + ', "jobs": ['
                    + ", ".join(encoded for _, encoded in self._jobs.values())
                    + "]}")
            return 200, self._listing + "\n"

    def health(self) -> Tuple[int, Dict[str, Any]]:
        """Liveness; ``workers`` counts the live workers only, so a dying
        pool shows here."""
        live = [worker for worker in self._workers() if worker.alive]
        return 200, {"status": "ok",
                     "code_version": code_version(),
                     "workers": len(live),
                     "live_workers": [{"worker": worker.worker_id,
                                       "pid": worker.pid}
                                      for worker in live],
                     "counts": self.store.counts()}

    def metrics(self) -> Tuple[int, Dict[str, Any]]:
        """Queue counts plus the counters every worker published.

        ``counters`` sums the per-worker counts (service job outcomes plus
        the engine's ``cache.*`` events recorded while each worker's
        tracer was active); ``per_worker`` keeps the breakdown, dead
        workers included; ``backend.counters`` sums the workers' backend
        counters (``lock.*``).
        """
        body: Dict[str, Any] = {"counts": self.store.counts()}
        workers = self._workers()
        if self.supervisor is not None:
            body["counters"] = _merged(worker.counters for worker in workers)
            body["per_worker"] = {worker.worker_id: worker.counters
                                  for worker in workers}
        backend = getattr(self.session.cache, "backend", None)
        if backend is not None:
            body["backend"] = dict(backend.describe(), counters=_merged(
                worker.backend_counters for worker in workers))
        return 200, body


def _encode(body: Any) -> str:
    """The wire form of a JSON reply: compact, keys sorted."""
    return json.dumps(body, sort_keys=True)


def _merged(counters: Iterable[Dict[str, int]]) -> Dict[str, int]:
    """Sum counter mappings, keys sorted."""
    merged: Dict[str, int] = {}
    for mapping in counters:
        for name, value in mapping.items():
            merged[name] = merged.get(name, 0) + value
    return {name: merged[name] for name in sorted(merged)}


class ServiceHandler(BaseHTTPRequestHandler):
    """Route dispatch; the server instance carries the ``ServiceState``."""

    server_version = "repro-service/1"
    protocol_version = "HTTP/1.1"
    # A reply is two writes (headers, body): with Nagle's algorithm the
    # second waits for the client's delayed ACK of the first, ~40 ms on a
    # kept-alive connection.
    disable_nagle_algorithm = True

    @property
    def state(self) -> ServiceState:
        return self.server.state  # type: ignore[attr-defined]

    # -- verbs --------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        if parts == ["v1", "health"]:
            self._reply(*self.state.health())
        elif parts == ["v1", "metrics"]:
            self._reply(*self.state.metrics())
        elif parts == ["v1", "jobs"]:
            self._reply(*self.state.listing())
        elif len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            self._reply(*self.state.status(parts[2]))
        elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] \
                and parts[3] == "result":
            self._reply(*self.state.result(parts[2]))
        else:
            self._reply(404, {"error": f"no route for GET {self.path}"})

    def do_POST(self) -> None:  # noqa: N802
        parts = [part for part in self.path.split("?")[0].split("/") if part]
        if parts == ["v1", "jobs"]:
            payload, error = self._read_json()
            if error is not None:
                self._reply(400, {"error": error})
            else:
                self._reply(*self.state.submit(payload))
        elif len(parts) == 4 and parts[:2] == ["v1", "jobs"] \
                and parts[3] == "cancel":
            self._reply(*self.state.cancel(parts[2]))
        else:
            self._reply(404, {"error": f"no route for POST {self.path}"})

    # -- plumbing -----------------------------------------------------------------
    def _read_json(self) -> Tuple[Any, Optional[str]]:
        # A body left unread would be parsed as the connection's next
        # request, so every refusal before the read closes the connection.
        try:
            length = int(self.headers.get("Content-Length", "0"))
        except ValueError:
            self.close_connection = True
            return None, "invalid Content-Length"
        if length <= 0:
            self.close_connection = True
            return None, "a JSON body is required"
        if length > MAX_BODY_BYTES:
            self.close_connection = True
            return None, f"body exceeds {MAX_BODY_BYTES} bytes"
        raw = self.rfile.read(length)
        try:
            return json.loads(raw.decode("utf-8")), None
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            return None, f"invalid JSON body: {error}"

    def _reply(self, status: int, body: Any) -> None:
        # Results are stored pre-rendered; serving the text unchanged is
        # what keeps fetched bytes identical to ``repro run --output json``.
        text = body if isinstance(body, str) else _encode(body) + "\n"
        data = text.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        logger.debug("%s - %s", self.address_string(), format % args)


class ServiceServer(ThreadingHTTPServer):
    """Threading HTTP server that owns a :class:`ServiceState`."""

    daemon_threads = True

    def __init__(self, address: Tuple[str, int], state: ServiceState):
        super().__init__(address, ServiceHandler)
        self.state = state


def make_server(state: ServiceState, host: str = "127.0.0.1",
                port: int = 0) -> ServiceServer:
    """Bind a service frontend; ``port=0`` picks a free port (tests)."""
    return ServiceServer((host, port), state)
