"""The worker that drains the job store through :class:`repro.api.Session`.

A :class:`Worker` is one claim-execute-finish loop.  ``python -m repro
serve`` runs each one in its own forked process under
:class:`repro.service.supervisor.Supervisor`; several ``serve`` processes
pointed at one store and one shared cache directory scale the same
protocol across machines.  A worker is named :func:`worker_identity`
(``<host>:<pid>``), so no two processes ever act on each other's claims.

Execution path of one claimed job:

* **run** jobs resolve their engine cache key first and take the shared
  backend's per-key lock (when the session's cache has one) around
  ``Session.run`` — the engine double-checks the cache under the lock, so
  identical work hitting two workers is computed exactly once per cache
  directory;
* **sweep** jobs go through ``Session.sweep``; every point resumes from
  the shared cache as usual.

Each worker owns a :class:`repro.obs.Tracer` activated around its
executions, so cache hit/store counters and per-job spans attribute to the
worker that did the work.  The tracer's counters and the worker's backend
counters (``lock.*``) are published to the store after every job — in the
same transaction that marks the job done — which is how ``GET
/v1/metrics`` reads them from another process.

Waiting: an idle worker blocks in one ``select`` on its wake-up fd (the
supervisor's pipe, which the frontend writes a byte to whenever a
submission leaves a job queued) and its stop fd, for at most
``poll_interval_s``; then it drains the wake-up pipe and claims again.
The timeout still picks up jobs that peer ``serve`` processes queue.

Liveness: the supervisor heartbeats the claims of the workers it sees
alive, and requeues a dead worker's claim as soon as it reaps it.  Every
idle loop still requeues stale claims of peer ``serve`` processes whose
heartbeats stopped — bounded by the job's attempt budget.  Stopping a
worker is a graceful drain: it finishes the job in hand, claims nothing
new, and returns.
"""

from __future__ import annotations

import logging
import os
import select
import socket
import traceback
from contextlib import nullcontext
from typing import Callable, Dict, Optional, Tuple

from repro.api import Session, sweep_json_text
from repro.obs import Tracer, activate
from repro.service.jobs import (DEFAULT_STALE_AFTER_S, JobSpec, JobState,
                                spec_from_canonical)
from repro.service.store import JobRecord, JobStore

logger = logging.getLogger(__name__)


#: The counter a failed attempt bumps, by the state ``JobStore.fail``
#: returned (``None``: the claim was no longer held).
_FAIL_COUNTERS = {JobState.FAILED: "service.jobs.failed",
                  JobState.QUEUED: "service.jobs.retried",
                  None: "service.jobs.lost_claim"}


def worker_identity(pid: Optional[int] = None) -> str:
    """The worker id of process ``pid`` (default: this one):
    ``<host>:<pid>``, unique among the processes sharing a store."""
    return f"{socket.gethostname()}:{os.getpid() if pid is None else pid}"


def _drain(fd: int) -> None:
    """Read a non-blocking pipe empty."""
    try:
        while os.read(fd, 4096):
            pass
    except BlockingIOError:
        pass


class Worker:
    """One claim-execute-finish loop over a :class:`JobStore`.

    Parameters
    ----------
    store:
        The shared job queue.
    session:
        The worker's engine connection.  Workers sharing one cache
        directory should use the ``"shared"`` backend kind so
        cross-worker deduplication holds.
    worker_id:
        Identity recorded on claims; defaults to :func:`worker_identity`.
    poll_interval_s / stale_after_s:
        Longest idle wait between two claim attempts, and the staleness
        bound after which a silent claim of a peer process is requeued.
    """

    def __init__(self, store: JobStore, session: Session,
                 worker_id: Optional[str] = None, *,
                 poll_interval_s: float = 0.1,
                 stale_after_s: float = DEFAULT_STALE_AFTER_S):
        self.store = store
        self.session = session
        self.worker_id = worker_id or worker_identity()
        self.poll_interval_s = poll_interval_s
        self.stale_after_s = stale_after_s
        self.tracer = Tracer(name=f"worker:{self.worker_id}")

    # -- the loop -----------------------------------------------------------------
    def run_forever(self, stop: Callable[[], bool], *,
                    wake_fd: Optional[int] = None,
                    stop_fd: Optional[int] = None) -> None:
        """Drain the store until ``stop()`` is true (graceful: the job in
        hand always completes; only *claiming* stops).

        With the queue empty the worker waits up to ``poll_interval_s``
        for ``wake_fd`` (a non-blocking pipe, drained here) or ``stop_fd``
        (left to ``stop``) to become readable.
        """
        waits = [fd for fd in (wake_fd, stop_fd) if fd is not None]
        while not stop():
            record = self.store.claim(self.worker_id)
            if record is None:
                recovered = self.store.requeue_stale(self.stale_after_s)
                if recovered["requeued"] or recovered["failed"]:
                    self.tracer.count("service.jobs.stale_recovered",
                                      recovered["requeued"]
                                      + recovered["failed"])
                    self._publish()
                    continue
                readable, _, _ = select.select(waits, [], [],
                                               self.poll_interval_s)
                if wake_fd in readable:
                    _drain(wake_fd)
                continue
            self.execute(record)

    def execute(self, record: JobRecord) -> None:
        """Execute one claimed job and record its outcome."""
        self.tracer.count("service.jobs.claimed")
        spec = spec_from_canonical(record.spec)
        try:
            with activate(self.tracer), \
                    self.tracer.span(f"job:{record.job_id[:12]}", kind="job",
                                     job_kind=spec.kind, target=spec.name):
                result_text, cache_key, computed = self._execute_spec(spec)
        except Exception as error:
            detail = "".join(traceback.format_exception_only(error)).strip()
            state = self.store.fail(record.job_id, self.worker_id, detail)
            self.tracer.count(_FAIL_COUNTERS[state])
            self._publish()
            logger.warning("worker %s: job %s attempt %d/%d failed (%s): %s",
                           self.worker_id, record.job_id[:12],
                           record.attempts, record.max_attempts,
                           state or "lost claim", detail)
            return
        outcome = ("service.jobs.done", "service.jobs.computed" if computed
                   else "service.jobs.served_from_cache")
        counters = self.tracer.counters.as_dict()
        for name in outcome:
            counters[name] = counters.get(name, 0) + 1
        if not self.store.finish(record.job_id, self.worker_id,
                                 result_text=result_text,
                                 cache_key=cache_key, counters=counters,
                                 backend_counters=self._backend_counters()):
            self.tracer.count("service.jobs.lost_claim")
            self._publish()
            logger.warning("worker %s: job %s finished after its claim was "
                           "lost; result discarded", self.worker_id,
                           record.job_id[:12])
            return
        for name in outcome:
            self.tracer.count(name)
        logger.info("worker %s: job %s done (%s)", self.worker_id,
                    record.job_id[:12],
                    "computed" if computed else "cache")

    def _publish(self) -> None:
        """Publish this worker's counters to the store."""
        self.store.publish_counters(self.worker_id,
                                    self.tracer.counters.as_dict(),
                                    self._backend_counters())

    def _backend_counters(self) -> Dict[str, int]:
        backend = getattr(self.session.cache, "backend", None)
        return ({} if backend is None
                else dict(backend.describe()["counters"]))

    def _execute_spec(self, spec: JobSpec
                      ) -> Tuple[str, Optional[str], bool]:
        """Run the spec; returns (result text, engine cache key, computed)."""
        if spec.kind == "run":
            seed = spec.seed if spec.seed is not None else self.session.seed
            key = self.session.cache_key(spec.name, seed=seed, **spec.params)
            backend = getattr(self.session.cache, "backend", None)
            lock = (backend.lock(key) if backend is not None
                    and hasattr(backend, "lock") else nullcontext())
            # Under the shared backend's per-key lock the engine's own
            # cache lookup doubles as the double-check: a concurrent
            # worker that already computed the key turns this into a hit.
            with lock:
                result = self.session.run(spec.name, seed=seed,
                                          **spec.params)
            return result.to_json(), result.cache_key, not result.cache_hit
        sweep = self.session.sweep_spec(spec.name, quick=spec.quick)
        if spec.params:
            sweep = sweep.with_overrides(dict(spec.params))
        result = self.session.sweep(sweep)
        return sweep_json_text(result), None, result.computed_points > 0

