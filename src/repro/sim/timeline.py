"""Execution timeline: the record of what ran when, on which stream.

The executor emits one event per kernel or DMA transfer.  The timeline
is the ground truth for every time-derived result: iteration latency
(Figure 14), reuse distances (Figure 6), overlap visualization
(Figure 9), DRAM-bandwidth accounting (Figure 13) and the power model
(Section V-D).

Storage is **slot-based**: events live in append-only parallel arrays
(one python list per field), not one object per event — the hot
simulation loop appends seven scalars instead of constructing a frozen
dataclass.  :class:`TimelineEvent` survives as the *view* type: the
:attr:`Timeline.events` property materialises (and caches) the familiar
event objects for analysis-time consumers, so everything downstream of
the simulator keeps its API while the simulator itself stops paying for
it.  Derived facts that analysis passes need repeatedly — the sorted
start/end boundary set, the stream-name set — are computed in one pass
over the arrays and cached.

A finished log is **sealed** (:meth:`Timeline.seal`, called when an
:class:`~repro.core.executor.IterationResult` is made): its four numeric
columns move once into typed ``array('d')``/``array('q')`` buffers,
about a quarter of the size of lists of boxed numbers, and appending
raises.  The
walk itself keeps appending to lists, which is several times faster than
``array.append``.  A sealed log reads, compares and pickles exactly like
its unsealed twin, and being read-only it can be shared: a result-cache
hit hands out a copy of the result that shares the log.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple


class EventKind(enum.Enum):
    FORWARD = "FWD"
    BACKWARD = "BWD"
    OFFLOAD = "OFF"
    PREFETCH = "PRE"
    STALL = "STALL"
    UPDATE = "UPD"
    RUN = "RUN"        # one multi-tenant residency interval of a whole job
    SYNC = "SYNC"      # zero-duration stream join (recorded in verify mode)
    FAULT = "FAULT"    # an injected fault striking (failed DMA attempt,
                       # budget shrink, eviction); duration = wasted time
    RETRY = "RETRY"    # backoff idle before re-attempting a failed DMA


@dataclass(frozen=True)
class TimelineEvent:
    """One interval of activity on one stream (a view over the slots)."""

    stream: str
    kind: EventKind
    label: str
    start: float
    end: float
    nbytes: int = 0           # payload moved (transfers) or touched (kernels)
    layer_index: int = -1

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"event {self.label!r} ends before it starts")

    @property
    def duration(self) -> float:
        return self.end - self.start


class EmptyTimelineError(ValueError):
    """Raised when time bounds are requested from an event-less timeline."""

    def __init__(self) -> None:
        super().__init__(
            "timeline is empty: no events have been recorded, so it has "
            "no time bounds"
        )


_COLUMNS = ("_stream", "_kind", "_label", "_start", "_end", "_nbytes",
            "_layer")
_SLOTS = _COLUMNS + ("_t0", "_t1")


def same_column(a, b) -> bool:
    """Equality of two log columns, each a list or its sealed array."""
    return a == b if type(a) is type(b) else list(a) == list(b)


class Timeline:
    """Append-only slot-array event log with simple analytics.

    Time bounds (``t0``/``t1``) are tracked incrementally on append, so
    ``span``/``end_time``/``render_ascii`` never rescan the whole log.
    Timelines compare equal when they hold equal event sequences, sealed
    or not.
    """

    __slots__ = _SLOTS + ("_sealed", "_view", "_bounds", "_streams")

    def __init__(self) -> None:
        self._stream: List[str] = []
        self._kind: List[EventKind] = []
        self._label: List[str] = []
        self._start: List[float] = []
        self._end: List[float] = []
        self._nbytes: List[int] = []
        self._layer: List[int] = []
        self._t0: Optional[float] = None
        self._t1: Optional[float] = None
        self._sealed = False
        # Caches derived from the arrays; invalidated by every append.
        self._view: Optional[List[TimelineEvent]] = None
        self._bounds: Optional[List[float]] = None
        self._streams: Optional[List[str]] = None

    # -- appending ------------------------------------------------------
    def append(
        self,
        stream: str,
        kind: EventKind,
        label: str,
        start: float,
        end: float,
        nbytes: int = 0,
        layer_index: int = -1,
    ) -> None:
        """Hot-path append: seven scalar pushes, no event object."""
        if end < start:
            raise ValueError(f"event {label!r} ends before it starts")
        if self._sealed:
            raise TypeError(f"cannot append {label!r}: the timeline is sealed")
        self._stream.append(stream)
        self._kind.append(kind)
        self._label.append(label)
        self._start.append(start)
        self._end.append(end)
        self._nbytes.append(nbytes)
        self._layer.append(layer_index)
        if self._t0 is None or start < self._t0:
            self._t0 = start
        if self._t1 is None or end > self._t1:
            self._t1 = end
        self._view = None
        self._bounds = None
        self._streams = None

    def seal(self) -> "Timeline":
        """Make the log read-only, its numeric columns typed arrays
        (idempotent)."""
        if not self._sealed:
            self._start = array("d", self._start)
            self._end = array("d", self._end)
            self._nbytes = array("q", self._nbytes)
            self._layer = array("q", self._layer)
            self._sealed = True
        return self

    @property
    def sealed(self) -> bool:
        return self._sealed

    # -- identity -------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Timeline):
            return NotImplemented
        # Bit-identity is the contract here, not approximation: two
        # timelines are equal iff they hold identical event sequences.
        return all(same_column(getattr(self, name), getattr(other, name))
                   for name in _COLUMNS)

    __hash__ = None  # mutable container; value-equal, not hashable

    def __len__(self) -> int:
        return len(self._start)

    def __getstate__(self) -> dict:
        # Pickle the arrays only — the caches are derivable and would
        # bloat every cached IterationResult with view objects.
        return {name: getattr(self, name) for name in _SLOTS}

    def __setstate__(self, state: dict) -> None:
        for name in _SLOTS:
            setattr(self, name, state[name])
        self._sealed = isinstance(self._start, array)
        self._view = None
        self._bounds = None
        self._streams = None

    # ------------------------------------------------------------------
    @property
    def events(self) -> List[TimelineEvent]:
        """Materialised event views (cached until the next append)."""
        if self._view is None:
            self._view = [
                TimelineEvent(*fields)
                for fields in zip(self._stream, self._kind, self._label,
                                  self._start, self._end, self._nbytes,
                                  self._layer)
            ]
        return list(self._view)

    @property
    def t0(self) -> float:
        """Earliest event start; raises :class:`EmptyTimelineError` when empty."""
        if self._t0 is None:
            raise EmptyTimelineError()
        return self._t0

    @property
    def t1(self) -> float:
        """Latest event end; raises :class:`EmptyTimelineError` when empty."""
        if self._t1 is None:
            raise EmptyTimelineError()
        return self._t1

    @property
    def span(self) -> float:
        """End-to-end wall time covered by the log (0 when empty)."""
        if self._t0 is None:
            return 0.0
        return self._t1 - self._t0

    @property
    def end_time(self) -> float:
        return self._t1 if self._t1 is not None else 0.0

    def of_kind(self, *kinds: EventKind) -> List[TimelineEvent]:
        return [e for e in self.events if e.kind in kinds]

    def on_stream(self, stream: str) -> List[TimelineEvent]:
        return [e for e in self.events if e.stream == stream]

    def for_layer(self, layer_index: int) -> List[TimelineEvent]:
        return [e for e in self.events if e.layer_index == layer_index]

    def streams(self) -> List[str]:
        """Sorted distinct stream names, one pass, cached."""
        if self._streams is None:
            self._streams = sorted(set(self._stream))
        return list(self._streams)

    def boundaries(self) -> List[float]:
        """Sorted distinct event start/end instants, one pass, cached.

        The power model (and any other sweep over activity intervals)
        consumes this instead of rebuilding ``sorted({starts}|{ends})``
        per call.
        """
        if self._bounds is None:
            self._bounds = sorted(set(self._start).union(self._end))
        return list(self._bounds)

    def layer_window(self, layer_indices) -> Optional[Tuple[float, float]]:
        """(earliest start, latest end) over events of the given layers.

        One pass over the arrays, no view materialisation; ``None`` when
        no event belongs to any of the layers.
        """
        lo: Optional[float] = None
        hi: Optional[float] = None
        for layer, start, end in zip(self._layer, self._start, self._end):
            if layer in layer_indices:
                if lo is None or start < lo:
                    lo = start
                if hi is None or end > hi:
                    hi = end
        if lo is None or hi is None:
            return None
        return lo, hi

    def busy_time(self, stream: str) -> float:
        """Union length of the stream's productive intervals.

        Stalls and retry backoffs are idle time, not work; failed DMA
        attempts (FAULT) do occupy the engine and count as busy.
        """
        return self.busy_times(stream)[stream]

    def busy_times(self, *streams: str) -> Dict[str, float]:
        """:meth:`busy_time` for several streams in one pass over the log."""
        per_stream: Dict[str, List[Tuple[float, float]]] = {
            s: [] for s in streams}
        stall, retry = EventKind.STALL, EventKind.RETRY
        for name, kind, start, end in zip(self._stream, self._kind,
                                          self._start, self._end):
            bucket = per_stream.get(name)
            if bucket is not None and kind is not stall \
                    and kind is not retry:
                bucket.append((start, end))
        out: Dict[str, float] = {}
        for stream, intervals in per_stream.items():
            intervals.sort()
            total, cursor = 0.0, float("-inf")
            for start, end in intervals:
                start = max(start, cursor)
                if end > start:
                    total += end - start
                    cursor = end
            out[stream] = total
        return out

    def transferred_bytes(self, *kinds: EventKind) -> int:
        kinds = kinds or (EventKind.OFFLOAD, EventKind.PREFETCH)
        return sum(n for n, k in zip(self._nbytes, self._kind)
                   if k in kinds)

    # ------------------------------------------------------------------
    def render_ascii(self, width: int = 100, streams: Optional[Iterable[str]] = None) -> str:
        """Render a Figure-9 style two-row timeline as ASCII art."""
        if not self._start:
            return "(empty timeline)"
        t0, t1 = self.t0, self.t1
        scale = (width - 1) / (t1 - t0) if t1 > t0 else 0.0

        names = list(streams) if streams else self.streams()
        rows = []
        for name in names:
            row = [" "] * width
            for event in self.on_stream(name):
                lo = int((event.start - t0) * scale)
                hi = max(lo + 1, int((event.end - t0) * scale))
                text = f"[{event.kind.value} {event.label}]"
                for i in range(lo, min(hi, width)):
                    offset = i - lo
                    row[i] = text[offset] if offset < len(text) else "="
            rows.append(f"{name:>14s} |{''.join(row)}|")
        rows.append(f"{'':>14s}  t=0 {'':{width - 14}} t={t1 - t0:.4f}s")
        return "\n".join(rows)
