"""Statistics collectors for simulation runs.

Three collectors cover the needs of the MAC simulation and the Monte-Carlo
contention characterisation:

``Monitor``
    Plain sample collector (mean / variance / percentiles of observations).

``TimeWeightedMonitor``
    Piecewise-constant signal integrator; used for state-occupancy times of
    the radio (how long the transceiver spends in idle / RX / TX) so that the
    time-weighted mean is exact regardless of when samples are taken.

``CounterMonitor``
    Named event counters with convenient ratio helpers (e.g. collisions per
    attempted transmission).

Only the :class:`Monitor` statistics use numpy, and they import it when
called: the obs tracer and the result cache count with
:class:`CounterMonitor`, so a cache hit never loads numpy.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np


class Monitor:
    """Collects scalar observations and exposes summary statistics."""

    def __init__(self, name: str = ""):
        self.name = name
        self._values: List[float] = []

    def record(self, value: float) -> None:
        """Append one observation."""
        self._values.append(float(value))

    def extend(self, values: Sequence[float]) -> None:
        """Append many observations at once."""
        self._values.extend(float(v) for v in values)

    @property
    def count(self) -> int:
        """Number of recorded observations."""
        return len(self._values)

    @property
    def values(self) -> np.ndarray:
        """All observations as an array (copy)."""
        import numpy as np
        return np.asarray(self._values, dtype=float)

    @property
    def total(self) -> float:
        """Sum of all observations."""
        import numpy as np
        return float(np.sum(self._values)) if self._values else 0.0

    @property
    def mean(self) -> float:
        """Arithmetic mean; ``nan`` when empty."""
        import numpy as np
        return float(np.mean(self._values)) if self._values else math.nan

    @property
    def std(self) -> float:
        """Sample standard deviation (ddof=1); ``nan`` with < 2 samples."""
        import numpy as np
        if len(self._values) < 2:
            return math.nan
        return float(np.std(self._values, ddof=1))

    @property
    def min(self) -> float:
        """Smallest observation; ``nan`` when empty."""
        import numpy as np
        return float(np.min(self._values)) if self._values else math.nan

    @property
    def max(self) -> float:
        """Largest observation; ``nan`` when empty."""
        import numpy as np
        return float(np.max(self._values)) if self._values else math.nan

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile of the observations; ``nan`` when empty."""
        import numpy as np
        if not self._values:
            return math.nan
        return float(np.percentile(self._values, q))

    def confidence_interval(self, level: float = 0.95) -> tuple:
        """Normal-approximation confidence interval for the mean.

        Returns ``(low, high)``; ``(nan, nan)`` with fewer than two samples.
        """
        if len(self._values) < 2:
            return (math.nan, math.nan)
        # Two-sided normal quantile; 1.96 for 95 %, generalised via the
        # inverse error function to avoid a scipy dependency in the core.
        alpha = 1.0 - level
        z = math.sqrt(2.0) * _erfinv(1.0 - alpha)
        half = z * self.std / math.sqrt(self.count)
        return (self.mean - half, self.mean + half)

    def reset(self) -> None:
        """Discard all observations."""
        self._values.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"Monitor(name={self.name!r}, count={self.count}, "
                f"mean={self.mean:.6g})" if self._values
                else f"Monitor(name={self.name!r}, empty)")


def _erfinv(y: float) -> float:
    """Inverse error function (Winitzki approximation, ~1e-3 accurate).

    Sufficient for confidence-interval half-widths; kept dependency-free so
    the simulation kernel does not require scipy.
    """
    if not -1.0 < y < 1.0:
        raise ValueError("erfinv argument must lie in (-1, 1)")
    a = 0.147
    ln_term = math.log(1.0 - y * y)
    first = 2.0 / (math.pi * a) + ln_term / 2.0
    inside = first * first - ln_term / a
    return math.copysign(math.sqrt(math.sqrt(inside) - first), y)


class TimeWeightedMonitor:
    """Integrates a piecewise-constant signal over simulated time.

    Record a new level with :meth:`record`; the previous level is weighted by
    the elapsed time.  Call :meth:`finalize` (or read properties) with the end
    time to close the last segment.
    """

    def __init__(self, name: str = "", initial_time: float = 0.0,
                 initial_value: float = 0.0):
        self.name = name
        self._last_time = float(initial_time)
        self._last_value = float(initial_value)
        self._area = 0.0
        self._duration = 0.0
        self._max = float(initial_value)
        self._min = float(initial_value)

    def record(self, time: float, value: float) -> None:
        """Change the signal to ``value`` at ``time``."""
        if time < self._last_time:
            raise ValueError(
                f"TimeWeightedMonitor received out-of-order time {time} "
                f"(last was {self._last_time})")
        dt = time - self._last_time
        self._area += self._last_value * dt
        self._duration += dt
        self._last_time = time
        self._last_value = float(value)
        self._max = max(self._max, self._last_value)
        self._min = min(self._min, self._last_value)

    def finalize(self, time: float) -> None:
        """Close the current segment at ``time`` without changing the level."""
        self.record(time, self._last_value)

    @property
    def current(self) -> float:
        """The most recently recorded level."""
        return self._last_value

    @property
    def integral(self) -> float:
        """Integral of the signal over the observed duration."""
        return self._area

    @property
    def duration(self) -> float:
        """Total observed duration."""
        return self._duration

    @property
    def time_average(self) -> float:
        """Time-weighted mean of the signal; ``nan`` with zero duration."""
        if self._duration == 0.0:
            return math.nan
        return self._area / self._duration

    @property
    def max(self) -> float:
        """Largest level seen."""
        return self._max

    @property
    def min(self) -> float:
        """Smallest level seen."""
        return self._min


class CounterMonitor:
    """Named integer counters with ratio helpers."""

    def __init__(self, name: str = ""):
        self.name = name
        self._counts: Dict[str, int] = {}

    def increment(self, key: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``key`` (created at zero on first use)."""
        self._counts[key] = self._counts.get(key, 0) + int(amount)

    def get(self, key: str) -> int:
        """Current value of counter ``key`` (zero if never incremented)."""
        return self._counts.get(key, 0)

    def ratio(self, numerator: str, denominator: str) -> float:
        """``counts[numerator] / counts[denominator]``; ``nan`` if empty."""
        denom = self.get(denominator)
        if denom == 0:
            return math.nan
        return self.get(numerator) / denom

    def as_dict(self) -> Dict[str, int]:
        """Copy of all counters."""
        return dict(self._counts)

    def reset(self) -> None:
        """Zero every counter."""
        self._counts.clear()

    def __getitem__(self, key: str) -> int:
        return self.get(key)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"CounterMonitor(name={self.name!r}, counts={self._counts})"
