"""How many CPUs this process may keep busy with processes of its own.

A process owns its CPU affinity set unless it is one of several worker
processes that share it: a ``--jobs N`` pool worker and each of
``repro serve --workers N`` own ``1/N`` of it.  Code that forks helpers
of its own (the batched MAC kernel's lane split) sizes them by
:func:`owned_cpus`, so workers never oversubscribe the machine.

Numpy-free and cheap to import: a pool worker's initializer imports it.
"""

from __future__ import annotations

import os

#: How many processes share this process's affinity set.
_share = 1


def share_cpus(processes: int) -> None:
    """Declare this process one of ``processes`` that share its CPUs.

    Worker processes call this once at start-up with their pool's size.
    Calls compound: a pool started inside a shared process divides that
    process's share again.
    """
    global _share
    _share *= max(1, int(processes))


def owned_cpus() -> int:
    """CPUs this process owns: its affinity set divided by the processes
    sharing it, at least one."""
    try:
        available = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        available = os.cpu_count() or 1
    return max(1, available // _share)
