"""``repro.service`` — the simulation-as-a-service layer.

Turns :class:`repro.api.Session` into a long-running service: typed job
specs whose canonical hash is a cross-user deduplication key
(:mod:`~repro.service.jobs`), a sqlite-backed job queue with atomic claims
(:mod:`~repro.service.store`), workers draining it through the session
façade (:mod:`~repro.service.worker`), the supervisor that forks them and
the frontend as processes (:mod:`~repro.service.supervisor`), a
stdlib-only JSON HTTP API (:mod:`~repro.service.http`) with its urllib
client
(:mod:`~repro.service.client`), and the ``repro serve`` / ``repro jobs``
command trees (:mod:`~repro.service.cli`).

Layering: this package sits *above* :mod:`repro.api` and imports nothing
below it except the cache-backend protocol
(:mod:`repro.runner.backends`) — asserted in CI.

The names load lazily (PEP 562), so importing a submodule such as
:mod:`repro.service.cli` does not pull in the whole service (sqlite,
``http.server``, :mod:`repro.api`).  The hooks mirror
:func:`repro._lazy.lazy_exports`; they are spelled out here because the
service seam imports nothing from ``repro`` but the façade, the obs layer
and the cache-backend protocol.
"""

import importlib

_EXPORTS = {
    "repro.service.client": ("ServiceClient", "ServiceError"),
    "repro.service.http": ("ServiceState", "make_server"),
    "repro.service.jobs": ("JOB_KINDS", "CanonicalJob", "JobSpec",
                           "JobSpecError", "JobState", "can_transition",
                           "canonicalize", "spec_from_canonical"),
    "repro.service.store": ("JobRecord", "JobStore"),
    "repro.service.supervisor": ("Supervisor",),
    "repro.service.worker": ("Worker", "worker_identity"),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items()
           for name in names}


def __getattr__(name):
    try:
        module = _ORIGIN[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute "
                             f"{name!r}") from None
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_ORIGIN))


__all__ = [
    "JOB_KINDS",
    "JobSpec",
    "JobSpecError",
    "JobState",
    "CanonicalJob",
    "can_transition",
    "canonicalize",
    "spec_from_canonical",
    "JobRecord",
    "JobStore",
    "Worker",
    "worker_identity",
    "Supervisor",
    "ServiceState",
    "make_server",
    "ServiceClient",
    "ServiceError",
]
