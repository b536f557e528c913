"""Memory-usage tracking over (simulated) time.

Figure 11 reports two statistics per configuration:

* **maximum** memory usage — the largest amount allocated at any instant,
  which "decides whether the target DNN application can be trained at
  all", and
* **average** memory usage — time-weighted mean of the live-byte curve,
  which measures how much memory the policy keeps free for other uses
  (bigger workspaces, fewer offloads).

:class:`UsageTracker` consumes (timestamp, live_bytes) samples emitted by
the executor every time the pool's occupancy changes and produces both.
Like the :class:`~repro.sim.timeline.Timeline`, a finished curve is
sealed when its :class:`~repro.core.executor.IterationResult` is made:
its two columns become typed arrays, read-only and shareable between a
cached result and the copies the result cache hands out.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import List, Tuple

from ..sim.timeline import same_column


@dataclass
class UsageSample:
    time: float
    live_bytes: int


class UsageTracker:
    """Collects a step function of live bytes over simulated time.

    Slot-based like :class:`~repro.sim.timeline.Timeline`: samples live
    in two parallel arrays and :class:`UsageSample` objects are only
    materialised by the :attr:`samples` view, so the simulator's
    per-alloc/free sampling appends two scalars instead of constructing
    a dataclass.  :meth:`seal` moves them into typed arrays once the
    curve is final.
    """

    __slots__ = ("_times", "_bytes", "_sealed")

    def __init__(self) -> None:
        self._times: List[float] = []
        self._bytes: List[int] = []
        self._sealed = False

    def record(self, time: float, live_bytes: int) -> None:
        """Append one sample; timestamps must be non-decreasing."""
        if live_bytes < 0:
            raise ValueError("live_bytes cannot be negative")
        if self._sealed:
            raise TypeError("cannot record: the usage curve is sealed")
        times = self._times
        if times and time < times[-1]:
            raise ValueError(
                f"time went backwards: {time} after {times[-1]}"
            )
        times.append(time)
        self._bytes.append(live_bytes)

    def seal(self) -> "UsageTracker":
        """Make the curve read-only, its columns typed arrays
        (idempotent)."""
        if not self._sealed:
            self._times = array("d", self._times)
            self._bytes = array("q", self._bytes)
            self._sealed = True
        return self

    @property
    def sealed(self) -> bool:
        return self._sealed

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UsageTracker):
            return NotImplemented
        # Bit-identity is the contract here, not approximation: two
        # trackers are equal iff they recorded identical curves.
        return same_column(self._times, other._times) \
            and same_column(self._bytes, other._bytes)

    __hash__ = None  # mutable container; value-equal, not hashable

    def __getstate__(self) -> tuple:
        return (self._times, self._bytes)

    def __setstate__(self, state) -> None:
        self._times, self._bytes = state
        self._sealed = isinstance(self._times, array)

    # ------------------------------------------------------------------
    @property
    def samples(self) -> List[UsageSample]:
        return [UsageSample(t, b) for t, b in zip(self._times, self._bytes)]

    @property
    def max_bytes(self) -> int:
        """Peak of the recorded curve (0 when empty)."""
        return max(self._bytes, default=0)

    @property
    def average_bytes(self) -> float:
        """Time-weighted average of the live-byte step function.

        Falls back to the arithmetic mean of the samples when all
        samples share one timestamp (e.g. analytic, zero-duration runs).
        """
        times, live = self._times, self._bytes
        if not times:
            return 0.0
        duration = times[-1] - times[0]
        if duration <= 0:
            return sum(live) / len(live)
        weighted = 0.0
        for i in range(len(times) - 1):
            weighted += live[i] * (times[i + 1] - times[i])
        return weighted / duration

    def curve(self) -> List[Tuple[float, int]]:
        """The raw (time, live_bytes) step function."""
        return list(zip(self._times, self._bytes))
