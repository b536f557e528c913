"""CUDA-stream model: in-order queues that can synchronize with each other.

vDNN "employs two separate CUDA streams to overlap normal DNN
computations with the memory allocation, movement, and release operations"
(Section III-B): ``stream_compute`` runs cuDNN kernels, ``stream_memory``
runs offload/prefetch DMA.  A CUDA stream executes its own work strictly
in order; cross-stream ordering only exists where the program inserts a
synchronization.  :class:`SimStream` models exactly that with a
``ready_time`` clock per stream.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .timeline import EventKind, Timeline

COMPUTE_STREAM = "stream_compute"
MEMORY_STREAM = "stream_memory"

#: STALL never goes through :meth:`SimStream.push` (it is recorded
#: directly on the timeline), so RETRY is the only pushed kind the
#: busy-time definition excludes.
_RETRY = EventKind.RETRY


@dataclass
class SimStream:
    """One in-order execution queue with a monotonically advancing clock."""

    name: str
    timeline: Timeline
    ready_time: float = 0.0
    #: Running occupancy total, maintained incrementally so observers
    #: never need an O(events) sweep.  Matches
    #: :meth:`~repro.sim.timeline.Timeline.busy_times` bit for bit: the
    #: summed term is ``end - start`` (NOT ``duration`` — with FP
    #: rounding ``(start + d) - start`` can differ from ``d``), terms
    #: accumulate in push order (= the merge's sorted order, since an
    #: in-order stream's starts are non-decreasing and its events never
    #: overlap), and RETRY backoff idling is excluded just as the merge
    #: excludes it.
    busy_seconds: float = field(default=0.0)

    def push(
        self,
        kind: EventKind,
        label: str,
        duration: float,
        earliest_start: float = 0.0,
        nbytes: int = 0,
        layer_index: int = -1,
    ) -> tuple:
        """Append one operation; it starts when the stream *and* its
        dependencies are ready, and runs for ``duration`` seconds.

        Returns the operation's bare ``(start, end)`` placement in time;
        the slot-based timeline stores the rest.
        """
        if duration < 0:
            raise ValueError(f"negative duration for {label!r}")
        start = max(self.ready_time, earliest_start)
        end = start + duration
        self.timeline.append(
            self.name, kind, label, start, end, nbytes, layer_index
        )
        self.ready_time = end
        if kind is not _RETRY:
            self.busy_seconds += end - start
        return start, end

    def wait_for(self, other: "SimStream") -> float:
        """cudaStreamSynchronize-style join: this stream's next operation
        cannot start before everything queued on ``other`` has finished.

        Returns the stall time introduced (0 when ``other`` was already
        done) — the "wasted time" the paper's Figure 9 shades.
        """
        stall = max(0.0, other.ready_time - self.ready_time)
        self.ready_time = max(self.ready_time, other.ready_time)
        return stall

    def wait_until(self, time: float) -> float:
        """Block the stream until an absolute timestamp (event wait)."""
        stall = max(0.0, time - self.ready_time)
        self.ready_time = max(self.ready_time, time)
        return stall


def make_stream_pair(timeline: Optional[Timeline] = None):
    """The (compute, memory) stream pair vDNN uses, sharing one timeline."""
    timeline = timeline if timeline is not None else Timeline()
    compute = SimStream(COMPUTE_STREAM, timeline)
    memory = SimStream(MEMORY_STREAM, timeline)
    return compute, memory, timeline
