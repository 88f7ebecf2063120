"""The ``python -m repro serve`` process tree: a supervisor, an HTTP
frontend and N worker processes.

The supervisor is a single-threaded process.  It binds the listening
socket (the caller does, before :meth:`Supervisor.run`) and forks two
kinds of child:

* the **HTTP frontend** — the :class:`~repro.service.http.ServiceServer`
  over the inherited socket, answering requests on its own threads;
* **N workers** — each one :class:`~repro.service.worker.Worker` loop,
  named ``<host>:<pid>`` and recorded in the store's worker registry.

Afterwards it only supervises:

* it reaps dead children.  A worker that died — killed, out of memory,
  crashed — has its claim requeued at once (no ``--stale-after`` wait),
  counts ``service.workers.lost`` and is replaced by a fresh fork; a dead
  frontend is replaced too (the socket stays bound meanwhile).  A slot is
  re-forked at most once per :data:`RESPAWN_DELAY_S`, so a worker that
  dies on start cannot spin;
* it heartbeats the claims its live workers hold, so peer ``serve``
  processes never requeue them as stale;
* on SIGTERM or SIGINT it forwards a graceful drain (SIGTERM) to every
  child — the frontend stops serving, each worker finishes the job in
  hand — waits for them and returns 0.  A second signal kills the
  children instead of waiting.

Every fork happens in the supervisor, which never starts a thread: forking
a multi-threaded process can deadlock the child, and Python 3.12 warns
about it.  :func:`check_single_threaded` enforces this before each fork.
Children leave through :func:`os._exit`, never returning into the
caller's stack, and exit on their own when the supervisor disappears.
"""

from __future__ import annotations

import logging
import os
import select
import signal
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.api import preload, share_cpus
from repro.service.http import ServiceServer
from repro.service.store import JobStore
from repro.service.worker import Worker, worker_identity

logger = logging.getLogger(__name__)

#: Cadence of the supervisor's heartbeats of its workers' claims.
HEARTBEAT_INTERVAL_S = 2.0
#: Shortest interval between two forks of one child slot.
RESPAWN_DELAY_S = 1.0
#: How often the frontend checks that its supervisor is still alive.
ORPHAN_CHECK_S = 1.0

_STOP_SIGNALS = frozenset({signal.SIGTERM, signal.SIGINT})
_WATCHED = (signal.SIGTERM, signal.SIGINT, signal.SIGCHLD)


def check_single_threaded() -> None:
    """Raise unless this process runs a single thread (safe to fork).

    Counts the OS threads where ``/proc`` lists them, so a native thread
    pool counts too; elsewhere the interpreter's threads.
    """
    try:
        count = len(os.listdir("/proc/self/task"))
    except OSError:
        count = threading.active_count()
    if count > 1:
        raise RuntimeError(
            f"refusing to fork: this process runs {count} threads, and a "
            f"forked child could deadlock on a lock one of them held")


def _ignore(signum, frame) -> None:  # noqa: ARG001 (signal signature)
    """Python-level handler of a watched signal; the wakeup fd does the
    work."""


class _Signals:
    """Signals delivered through a self-pipe, so one ``select`` waits for
    a signal or a timeout — no thread, no lost wakeup."""

    def __init__(self, signums: Iterable[int]):
        self._read, self._write = os.pipe()
        for fd in (self._read, self._write):
            os.set_blocking(fd, False)
        self._previous = {signum: signal.signal(signum, _ignore)
                          for signum in signums}
        signal.set_wakeup_fd(self._write)
        #: Every signal received so far.
        self.received: Set[int] = set()

    def wait(self, timeout_s: float) -> Set[int]:
        """Block up to ``timeout_s`` for a signal; return the signals
        received in this call."""
        select.select([self._read], [], [], max(0.0, timeout_s))
        try:
            fresh = set(os.read(self._read, 4096))
        except BlockingIOError:
            fresh = set()
        self.received |= fresh
        return fresh

    def close(self) -> None:
        """Restore the previous handlers and close the pipe."""
        signal.set_wakeup_fd(-1)
        for signum, handler in self._previous.items():
            signal.signal(signum, handler)
        os.close(self._read)
        os.close(self._write)


@dataclass
class _Child:
    main: Callable[[_Signals], int]
    worker_id: Optional[str]
    started: float


class Supervisor:
    """Fork and watch the service's frontend and worker processes.

    Parameters
    ----------
    store:
        The job store; the supervisor registers its workers there,
        heartbeats their claims and releases the claims of dead ones.
    make_worker:
        Zero-argument callable run *in each worker process* that builds
        its :class:`Worker` (and with it the worker's own session).
    workers:
        Worker process count; ``0`` serves the frontend alone.
    """

    def __init__(self, store: JobStore, make_worker: Callable[[], Worker], *,
                 workers: int = 2):
        self.store = store
        self.make_worker = make_worker
        self.workers = max(0, int(workers))
        #: Registry key of this supervisor's workers (the start time keeps
        #: it unique should a later process reuse this host and pid).
        self.identity = f"{worker_identity()}@{time.time():.0f}"
        self._server: Optional[ServiceServer] = None
        self._signals: Optional[_Signals] = None
        self._children: Dict[int, _Child] = {}
        self._respawns: List[Tuple[float, Callable[[_Signals], int]]] = []

    # -- the supervisor -----------------------------------------------------------
    def run(self, server: ServiceServer) -> int:
        """Serve through ``server``'s bound socket until a stop signal
        has drained every child; returns the exit status (0).

        The model is imported after the frontend is forked (health
        answers meanwhile) and before the workers are, so every worker
        starts with it loaded.
        """
        self._server = server
        self._signals = _Signals(_WATCHED)
        try:
            self._spawn(self._frontend_main)
            preload()
            for _ in range(self.workers):
                self._spawn(self._worker_main)
            self._supervise()
        finally:
            self._signals.close()
            server.server_close()
        return 0

    def _supervise(self) -> None:
        draining = False
        next_beat = time.monotonic() + HEARTBEAT_INTERVAL_S
        while self._children:
            wake = min([next_beat] + [due for due, _ in self._respawns])
            received = self._signals.wait(wake - time.monotonic())
            if received & _STOP_SIGNALS:
                self._respawns.clear()
                if draining:
                    logger.warning("second stop signal; killing children")
                    self._signal_children(signal.SIGKILL)
                else:
                    logger.info("stop signal; draining %d child(ren)",
                                len(self._children))
                    draining = True
                    self._signal_children(signal.SIGTERM)
            self._reap(replace=not draining)
            now = time.monotonic()
            for entry in [entry for entry in self._respawns
                          if entry[0] <= now]:
                self._respawns.remove(entry)
                self._spawn(entry[1])
            if now >= next_beat:
                self._heartbeat()
                next_beat = now + HEARTBEAT_INTERVAL_S

    def _spawn(self, main: Callable[[_Signals], int]) -> None:
        """Fork one child running ``main``; signals stay blocked across
        the fork so none reaches the child before its own handlers."""
        check_single_threaded()
        sys.stdout.flush()
        sys.stderr.flush()
        signal.pthread_sigmask(signal.SIG_BLOCK, _WATCHED)
        try:
            pid = os.fork()
            if pid == 0:
                self._child(main)
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _WATCHED)
        worker_id = None
        if main == self._worker_main:
            worker_id = worker_identity(pid)
            self.store.register_worker(worker_id, self.identity, pid)
        self._children[pid] = _Child(main, worker_id, time.monotonic())
        logger.debug("forked %s (pid %d)", worker_id or "frontend", pid)

    def _child(self, main: Callable[[_Signals], int]) -> None:
        """The forked side of :meth:`_spawn`; never returns.  SIGINT (a
        terminal's Ctrl-C reaches the whole process group) is left to the
        supervisor; SIGTERM is the child's drain request."""
        status = 1
        try:
            self._signals.close()
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            stop = _Signals((signal.SIGTERM,))
            signal.pthread_sigmask(signal.SIG_UNBLOCK, _WATCHED)
            status = main(stop)
        except Exception:
            logger.exception("service child %d crashed", os.getpid())
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(status)

    def _reap(self, replace: bool) -> None:
        """Collect every exited child; release a dead worker's claims and
        schedule its replacement."""
        while self._children:
            pid, status = os.waitpid(-1, os.WNOHANG)
            if pid == 0:
                return
            child = self._children.pop(pid)
            code = os.waitstatus_to_exitcode(status)
            if child.worker_id is not None:
                lost = code != 0
                try:
                    released = self.store.retire_worker(child.worker_id,
                                                        lost=lost)
                except Exception:
                    logger.exception("cannot retire worker %s",
                                     child.worker_id)
                    released = {}
                if lost:
                    logger.warning(
                        "worker %s died (exit status %d); released its "
                        "claims: %s", child.worker_id, code, released)
            elif replace:
                logger.warning("frontend (pid %d) died (exit status %d)",
                               pid, code)
            if replace:
                due = max(time.monotonic(), child.started + RESPAWN_DELAY_S)
                self._respawns.append((due, child.main))

    def _heartbeat(self) -> None:
        live = [child.worker_id for child in self._children.values()
                if child.worker_id is not None]
        try:
            self.store.heartbeat(live)
        except Exception:  # pragma: no cover - liveness best effort
            logger.exception("claim heartbeat failed")

    def _signal_children(self, signum: int) -> None:
        # An exited child stays a zombie until reaped, so the pid is
        # still ours to signal.
        for pid in self._children:
            os.kill(pid, signum)

    # -- the children -------------------------------------------------------------
    def _frontend_main(self, stop: _Signals) -> int:
        """Serve HTTP until SIGTERM or until the supervisor is gone."""
        supervisor = os.getppid()
        server = self._server
        threading.Thread(target=server.serve_forever, name="service-http",
                         daemon=True).start()
        while signal.SIGTERM not in stop.wait(ORPHAN_CHECK_S) \
                and os.getppid() == supervisor:
            pass
        server.shutdown()
        server.server_close()
        return 0

    def _worker_main(self, stop: _Signals) -> int:
        """Run one worker loop until SIGTERM or until the supervisor is
        gone (graceful either way: the job in hand completes).  The
        workers split the CPUs evenly, so a kernel inside one splits its
        lanes over this worker's share only."""
        supervisor = os.getppid()
        self._server.socket.close()
        share_cpus(self.workers)
        worker = self.make_worker()

        def stopping() -> bool:
            stop.wait(0)
            return (signal.SIGTERM in stop.received
                    or os.getppid() != supervisor)

        worker.run_forever(stopping)
        return 0
