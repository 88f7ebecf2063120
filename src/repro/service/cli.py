"""The ``serve`` and ``jobs`` command trees of ``python -m repro``.

``repro serve`` hosts the whole service as one process tree: a
single-threaded supervisor that forks the HTTP frontend and N worker
processes draining the job store through :class:`repro.api.Session` (see
:mod:`repro.service.supervisor`).  Several ``serve`` processes pointed at
one ``--store`` and one ``--cache-dir`` (with ``--backend shared``)
cooperate safely — claims are atomic in sqlite and result artifacts dedup
through the shared cache.

``repro jobs submit|status|fetch|cancel`` is the matching client.
``fetch`` writes the stored result text verbatim, so for run jobs its
output is byte-identical to ``repro run --output json`` of the same spec.

The parsers are built from argparse alone; the handlers import the façade,
the store, the HTTP server and the client when they run.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from typing import TYPE_CHECKING, Any, Dict, Tuple

from repro.service.jobs import DEFAULT_STALE_AFTER_S

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.client import ServiceClient

logger = logging.getLogger(__name__)


def parse_param_arg(text: str) -> Tuple[str, Any]:
    """The façade's shared ``--param KEY=VALUE`` reader, imported on use."""
    from repro.api import parse_param_arg as parse
    return parse(text)


def add_serve_arguments(serve: argparse.ArgumentParser) -> None:
    """Add the ``serve`` options to the main CLI's ``serve`` parser."""
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8750,
                       help="bind port (default 8750; 0 picks a free port)")
    serve.add_argument("--workers", type=int, default=2,
                       help="worker processes draining the job queue "
                            "(default 2; 0 = frontend only)")
    serve.add_argument("--backend", choices=["directory", "shared"],
                       default="shared",
                       help="cache backend; 'shared' (default) adds "
                            "cross-process locking so several serve "
                            "processes can share one cache directory")
    serve.add_argument("--cache-dir", default=None,
                       help="result-cache directory (default REPRO_CACHE_DIR "
                            "or ~/.cache/repro-bougard)")
    serve.add_argument("--store", default=None, metavar="PATH",
                       help="job-store sqlite path (default "
                            "<cache-dir>/jobs.sqlite)")
    serve.add_argument("--jobs", "-j", type=int, default=1,
                       help="processes each job's tasks fan out over "
                            "(default 1 = the worker itself; its batched "
                            "kernel still splits lanes over the worker's "
                            "share of the CPUs)")
    serve.add_argument("--seed", type=int, default=None,
                       help="session seed policy for specs without a seed "
                            "(default: the engine default seed)")
    serve.add_argument("--max-attempts", type=int, default=3,
                       help="attempt budget per job before it fails "
                            "(default 3)")
    serve.add_argument("--stale-after", type=float,
                       default=DEFAULT_STALE_AFTER_S, metavar="SECONDS",
                       help="requeue a claim with no heartbeat for this "
                            f"long (default {DEFAULT_STALE_AFTER_S:g}s)")


def add_jobs_arguments(jobs: argparse.ArgumentParser) -> None:
    """Build the ``jobs`` client tree on the main CLI's ``jobs`` parser."""
    jobs.add_argument("--url", default="http://127.0.0.1:8750",
                      help="service endpoint "
                           "(default http://127.0.0.1:8750)")
    actions = jobs.add_subparsers(dest="jobs_command", required=True)

    submit = actions.add_parser("submit", help="submit one job")
    submit.add_argument("name", help="experiment (run) or sweep name")
    submit.add_argument("--kind", choices=["run", "sweep"], default="run",
                        help="job kind (default run)")
    submit.add_argument("--seed", type=int, default=None,
                        help="master seed (default: the service's policy)")
    submit.add_argument("--quick", action="store_true",
                        help="sweep jobs: the scaled-down CI variant")
    submit.add_argument("--param", action="append", type=parse_param_arg,
                        default=[], metavar="KEY=VALUE",
                        help="parameter override (repeatable)")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job finishes and print its "
                             "result JSON")
    submit.add_argument("--timeout", type=float, default=600.0,
                        metavar="SECONDS",
                        help="--wait polling budget (default 600)")

    status = actions.add_parser("status", help="job lifecycle status")
    status.add_argument("job_id", help="job id from 'submit'")

    fetch = actions.add_parser(
        "fetch", help="print a finished job's result JSON")
    fetch.add_argument("job_id", help="job id from 'submit'")

    cancel = actions.add_parser("cancel", help="cancel a queued job")
    cancel.add_argument("job_id", help="job id from 'submit'")

    listing = actions.add_parser("list", help="queue listing and counts")
    del listing


#: Thread-pool sizes of the BLAS libraries numpy may link.  ``serve``
#: pins them to one: its parallelism is the worker processes, and a
#: supervisor running a BLAS pool could not fork safely.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")


def command_serve(arguments: argparse.Namespace) -> int:
    """Run the service until SIGINT/SIGTERM, then drain gracefully."""
    for name in _BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"
    from repro.api import Session, resolve_backend
    from repro.service.http import ServiceState, make_server
    from repro.service.store import JobStore
    from repro.service.supervisor import Supervisor
    from repro.service.worker import Worker
    backend = resolve_backend(arguments.backend, arguments.cache_dir)
    store_path = arguments.store or str(backend.root / "jobs.sqlite")
    store = JobStore(store_path, max_attempts=arguments.max_attempts)

    session_options: Dict[str, Any] = {"backend": backend,
                                       "jobs": arguments.jobs}
    if arguments.seed is not None:
        session_options["seed"] = arguments.seed
    supervisor = Supervisor(
        store,
        lambda: Worker(store, Session(**session_options),
                       stale_after_s=arguments.stale_after),
        workers=arguments.workers)
    server = make_server(
        ServiceState(Session(**session_options), store, supervisor.identity),
        arguments.host, arguments.port)
    host, port = server.server_address[:2]
    print(f"repro service listening on http://{host}:{port} "
          f"({supervisor.workers} worker(s), "
          f"cache {backend.describe()['root']}, store {store_path})")
    status = supervisor.run(server)
    logger.info("service stopped; queue counts: %s",
                json.dumps(store.counts(), sort_keys=True))
    store.close()
    return status


def command_jobs(arguments: argparse.Namespace) -> int:
    """Dispatch one ``repro jobs`` client action."""
    from repro.service.client import ServiceClient, ServiceError
    client = ServiceClient(arguments.url)
    try:
        return _run_jobs_action(client, arguments)
    except ServiceError as error:
        logger.error(f"error: {error.message}")
        return 2
    except OSError as error:
        logger.error(f"error: cannot reach {arguments.url}: {error}")
        return 2
    except TimeoutError as error:
        logger.error(f"error: {error}")
        return 3
    finally:
        client.close()


def _run_jobs_action(client: ServiceClient,
                     arguments: argparse.Namespace) -> int:
    action = arguments.jobs_command
    if action == "submit":
        payload = {"kind": arguments.kind, "name": arguments.name,
                   "params": dict(arguments.param), "seed": arguments.seed,
                   "quick": arguments.quick}
        receipt = client.submit(payload)
        if not arguments.wait:
            print(json.dumps(receipt, indent=2, sort_keys=True))
            return 0
        status = client.wait(receipt["job_id"],
                             timeout_s=arguments.timeout)
        if status["state"] != "done":
            logger.error(f"error: job {receipt['job_id']} ended "
                         f"{status['state']}: "
                         f"{status.get('error') or 'no detail'}")
            return 1
        sys.stdout.write(client.result_text(receipt["job_id"]))
        return 0
    if action == "status":
        print(json.dumps(client.status(arguments.job_id), indent=2,
                         sort_keys=True))
        return 0
    if action == "fetch":
        sys.stdout.write(client.result_text(arguments.job_id))
        return 0
    if action == "cancel":
        print(json.dumps(client.cancel(arguments.job_id), indent=2,
                         sort_keys=True))
        return 0
    print(json.dumps(client.jobs(), indent=2, sort_keys=True))
    return 0
