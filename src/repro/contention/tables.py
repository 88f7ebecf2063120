"""Cached contention-characterisation tables with interpolation.

Re-running the Monte-Carlo for every query of the energy model would be
wasteful — the paper itself characterises the contention behaviour once
(Figure 6) and then reads the curves.  :class:`ContentionTable` stores the
statistics on a (load, packet size) grid and answers arbitrary queries by
bilinear interpolation, which is exactly how the analytical model consumes
the characterisation.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

# PAPER_SEED, the canonical master seed, is re-exported from the
# numpy-free leaf module that defines it.
from repro.constants import PAPER_SEED
from repro.contention.monte_carlo import ContentionSimulator
from repro.contention.statistics import ContentionStatistics


class ContentionTable:
    """Interpolating lookup table of contention statistics.

    Parameters
    ----------
    loads:
        Grid of load values (ascending).
    packet_sizes:
        Grid of on-air packet sizes in bytes (ascending).
    statistics:
        Mapping ``(load_index, size_index) -> ContentionStatistics``.
    """

    _FIELDS = ("mean_contention_time_s", "mean_cca_count",
               "collision_probability", "channel_access_failure_probability",
               "mean_backoff_slots")

    def __init__(self, loads: Sequence[float], packet_sizes: Sequence[int],
                 statistics: Dict[Tuple[int, int], ContentionStatistics]):
        self.loads = sorted(float(l) for l in loads)
        self.packet_sizes = sorted(int(s) for s in packet_sizes)
        if list(self.loads) != [float(l) for l in loads]:
            raise ValueError("loads must be given in ascending order")
        if list(self.packet_sizes) != [int(s) for s in packet_sizes]:
            raise ValueError("packet_sizes must be given in ascending order")
        for i in range(len(self.loads)):
            for j in range(len(self.packet_sizes)):
                if (i, j) not in statistics:
                    raise ValueError(
                        f"Missing statistics for grid point ({i}, {j})")
        self._statistics = dict(statistics)

    # -- construction --------------------------------------------------------------
    @classmethod
    def from_callable(cls, source: Callable[[float, int], ContentionStatistics],
                      loads: Sequence[float],
                      packet_sizes: Sequence[int]) -> "ContentionTable":
        """Build a table by evaluating ``source`` on the full grid."""
        statistics: Dict[Tuple[int, int], ContentionStatistics] = {}
        for i, load in enumerate(loads):
            for j, size in enumerate(packet_sizes):
                statistics[(i, j)] = source(load, size)
        return cls(loads, packet_sizes, statistics)

    # -- lookup -----------------------------------------------------------------------
    def _bracket(self, grid: List[float], value: float) -> Tuple[int, int, float]:
        """Indices and interpolation weight for ``value`` on ``grid`` (clamped)."""
        if value <= grid[0]:
            return 0, 0, 0.0
        if value >= grid[-1]:
            last = len(grid) - 1
            return last, last, 0.0
        hi = bisect.bisect_right(grid, value)
        lo = hi - 1
        weight = (value - grid[lo]) / (grid[hi] - grid[lo])
        return lo, hi, weight

    def lookup(self, load: float, packet_bytes: int) -> ContentionStatistics:
        """Bilinearly interpolated statistics at (``load``, ``packet_bytes``).

        Queries outside the grid are clamped to the nearest edge.
        """
        li_lo, li_hi, lw = self._bracket(self.loads, float(load))
        si_lo, si_hi, sw = self._bracket([float(s) for s in self.packet_sizes],
                                         float(packet_bytes))

        def value(field: str) -> float:
            v00 = getattr(self._statistics[(li_lo, si_lo)], field)
            v01 = getattr(self._statistics[(li_lo, si_hi)], field)
            v10 = getattr(self._statistics[(li_hi, si_lo)], field)
            v11 = getattr(self._statistics[(li_hi, si_hi)], field)
            v0 = v00 * (1 - sw) + v01 * sw
            v1 = v10 * (1 - sw) + v11 * sw
            return v0 * (1 - lw) + v1 * lw

        return ContentionStatistics(
            load=float(load),
            packet_bytes=int(packet_bytes),
            mean_contention_time_s=value("mean_contention_time_s"),
            mean_cca_count=value("mean_cca_count"),
            collision_probability=min(1.0, max(0.0, value("collision_probability"))),
            channel_access_failure_probability=min(
                1.0, max(0.0, value("channel_access_failure_probability"))),
            mean_backoff_slots=value("mean_backoff_slots"),
            samples=0,
        )

    def __call__(self, load: float, packet_bytes: int) -> ContentionStatistics:
        """Alias for :meth:`lookup` so the table can act as a model source."""
        return self.lookup(load, packet_bytes)

    # -- export ------------------------------------------------------------------------
    def grid_statistics(self) -> List[ContentionStatistics]:
        """All grid-point statistics (row-major: loads outer, sizes inner)."""
        out = []
        for i in range(len(self.loads)):
            for j in range(len(self.packet_sizes)):
                out.append(self._statistics[(i, j)])
        return out

    def to_payload(self) -> Dict:
        """A JSON-serialisable snapshot of the full table.

        The inverse of :meth:`from_payload`; used by the experiment engine's
        on-disk result cache so a characterisation survives across processes.
        """
        cells = []
        for i in range(len(self.loads)):
            for j in range(len(self.packet_sizes)):
                stats = self._statistics[(i, j)]
                cells.append({field: getattr(stats, field)
                              for field in self._FIELDS}
                             | {"load": stats.load,
                                "packet_bytes": stats.packet_bytes,
                                "samples": stats.samples})
        return {"loads": list(self.loads),
                "packet_sizes": list(self.packet_sizes),
                "cells": cells}

    @classmethod
    def from_payload(cls, payload: Dict) -> "ContentionTable":
        """Rebuild a table from a :meth:`to_payload` snapshot."""
        loads = payload["loads"]
        packet_sizes = payload["packet_sizes"]
        statistics: Dict[Tuple[int, int], ContentionStatistics] = {}
        cells = iter(payload["cells"])
        for i in range(len(loads)):
            for j in range(len(packet_sizes)):
                statistics[(i, j)] = ContentionStatistics(**next(cells))
        return cls(loads, packet_sizes, statistics)


def build_contention_table(loads: Sequence[float],
                           packet_sizes: Sequence[int],
                           simulator: Optional[ContentionSimulator] = None,
                           num_windows: int = 30,
                           executor=None,
                           seed: int = PAPER_SEED,
                           num_nodes: int = 100) -> ContentionTable:
    """Characterise the full (load, packet size) grid by Monte-Carlo.

    Two modes:

    * **Shared-simulator (default, ``executor=None``)** — one simulator walks
      the grid in order, drawing all windows from a single random stream.
      This is the historical behaviour every seeded test relies on.
    * **Executor (``executor`` given)** — each grid point is characterised by
      its own simulator seeded via :func:`repro.sim.random.spawn_seeds`, so
      the points are independent tasks that can run on a process pool.  The
      table is bit-identical whether the executor is serial or parallel (the
      ``simulator`` argument is ignored; pass ``seed``/``num_nodes`` instead).

    Parameters
    ----------
    loads / packet_sizes:
        Grid axes (ascending).
    simulator:
        Shared-simulator mode only: the Monte-Carlo simulator to walk the
        grid with (a default 100-node simulator with the paper's CSMA
        convention is created when omitted).
    num_windows:
        Contention windows simulated per grid point.
    executor:
        A :mod:`repro.runner.executor` strategy enabling the per-point-seed
        mode; ``None`` keeps the shared-simulator behaviour.
    seed / num_nodes:
        Executor mode only: master seed of the per-point seed family and
        contending node count.
    """
    if executor is not None:
        from repro.contention.monte_carlo import characterize_grid

        points = [(load, size) for load in loads for size in packet_sizes]
        stats = characterize_grid(points, num_windows=num_windows,
                                  num_nodes=num_nodes, seed=seed,
                                  executor=executor,
                                  stream_name="contention.table")
        by_point = dict(zip(points, stats))
        statistics = {(i, j): by_point[(load, size)]
                      for i, load in enumerate(loads)
                      for j, size in enumerate(packet_sizes)}
        return ContentionTable(loads, packet_sizes, statistics)

    simulator = simulator or ContentionSimulator()
    return ContentionTable.from_callable(
        lambda load, size: simulator.characterize(load, size,
                                                  num_windows=num_windows),
        loads, packet_sizes)


_DEFAULT_TABLE_CACHE: Dict[Tuple, ContentionTable] = {}


def default_contention_table(num_windows: int = 20,
                             seed: int = PAPER_SEED) -> ContentionTable:
    """A lazily built, cached characterisation table for common queries.

    The grid spans loads 0.05–0.9 and on-air packet sizes 20–133 bytes,
    covering every experiment of the paper.  The table is built once per
    process and cached.
    """
    key = (num_windows, seed)
    if key not in _DEFAULT_TABLE_CACHE:
        simulator = ContentionSimulator(seed=seed)
        loads = [0.05, 0.1, 0.2, 0.3, 0.42, 0.5, 0.6, 0.75, 0.9]
        sizes = [20, 33, 63, 93, 113, 133]
        _DEFAULT_TABLE_CACHE[key] = build_contention_table(
            loads, sizes, simulator=simulator, num_windows=num_windows)
    return _DEFAULT_TABLE_CACHE[key]
