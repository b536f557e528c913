"""Schedule traces: the verifiable record of one simulated iteration.

The :class:`~repro.sim.timeline.Timeline` records *when* things ran; it
is the right artifact for performance questions and the wrong one for
correctness questions, because it only logs stalls that cost time — a
synchronization that happened to be free leaves no event, yet it is
exactly what makes a release or a prefetch safe.  ``ScheduleTrace``
therefore records the *program* the memory manager executed: every pool
allocation and stream-ordered release, every kernel with the buffers it
reads and writes, every DMA transfer, and every synchronization —
including the zero-cost ones.

Op semantics (mirroring CUDA + cnmem, see docs/analysis.md):

* ``ALLOC`` — host-synchronous pool reservation: completes at issue, so
  it happens-before everything issued later.
* ``FREE`` — stream-ordered release (cnmem's asynchronous free): the
  block is recycled only when ``op.stream`` reaches the release point.
* ``KERNEL`` / ``OFFLOAD`` / ``PREFETCH`` — asynchronous work on their
  stream; cross-stream ordering exists only through syncs or an explicit
  ``wait_stream``/``wait_pos`` event dependency (the executor's
  ``earliest_start`` gating).
* ``SYNC`` — host-synchronous join: the host blocks until every op at
  position ``<= wait_pos`` on ``wait_stream`` has completed, so those
  completions order before everything issued afterwards.

Positions are per-stream issue indices; ``seq`` is the global host issue
order.  Hand-built traces (test fixtures) use the same builder methods
the executor uses.

Storage is columnar, as in :class:`~repro.sim.timeline.Timeline`: one
list per op field, indexed by ``seq``, so recording an op appends
scalars and builds no object.  Streams are numbered once, in order of
first mention, and ops carry the stream id.  :class:`TraceOp` is a
two-slot ``(trace, seq)`` view, made only where a caller asks for op
objects (:attr:`ScheduleTrace.ops`, the queries, the builder return
values); the analysis passes read the columns.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from typing import Dict, List, Optional, Tuple

from ..alloc.pool import Allocation, PoolAllocator

#: Stream name for host-synchronous ops (alloc / sync).
HOST_STREAM = "host"


class OpKind(enum.Enum):
    ALLOC = "alloc"
    FREE = "free"
    KERNEL = "kernel"
    OFFLOAD = "offload"      # device -> host DMA; reads its buffer
    PREFETCH = "prefetch"    # host -> device DMA; writes its buffer
    SYNC = "sync"

    @property
    def host_synchronous(self) -> bool:
        return self in (OpKind.ALLOC, OpKind.SYNC)


#: The per-op columns, in ``ScheduleTrace._push`` argument order (which
#: omits ``positions``: the trace assigns them).
_COLUMNS = (
    "kinds",            # OpKind
    "stream_ids",       # index into ``streams``
    "positions",        # issue index within the stream
    "labels",
    "buffers",          # buffer id for alloc/free/transfer ops
    "owners",           # storage-owner layer for feature buffers
    "nbytes",
    "offsets",          # pool placement (-1: unknown/not modeled)
    "sizes",            # aligned size actually reserved
    "reads",            # tuple of buffer ids
    "writes",           # tuple of buffer ids
    "layers",           # layer whose step issued the op
    "target_layers",    # transfer trigger layer (Fig. 10 walk)
    "wait_stream_ids",  # event/sync dependency: stream id (-1: none) ...
    "wait_positions",   # ... completed through this position
    "phases",           # "fwd" | "bwd" | "end" (kernels, frees)
    "demands",          # blocking demand fetch, not a prefetch
    "persistents",      # legitimately outlives the iteration
    "starts",           # timeline anchors (rendering only)
    "ends",
)


def _column(name: str) -> property:
    return property(lambda op: getattr(op.trace, name)[op.seq])


class TraceOp:
    """One operation the memory manager issued: a view of one trace row."""

    __slots__ = ("trace", "seq")

    def __init__(self, trace: "ScheduleTrace", seq: int) -> None:
        self.trace = trace
        self.seq = seq              # global issue order

    pos = _column("positions")
    kind = _column("kinds")
    label = _column("labels")
    buffer = _column("buffers")
    owner = _column("owners")
    nbytes = _column("nbytes")
    offset = _column("offsets")
    size = _column("sizes")
    reads = _column("reads")
    writes = _column("writes")
    layer_index = _column("layers")
    target_layer = _column("target_layers")
    wait_pos = _column("wait_positions")
    phase = _column("phases")
    demand = _column("demands")
    persistent = _column("persistents")
    start = _column("starts")
    end = _column("ends")

    @property
    def stream(self) -> str:
        return self.trace.streams[self.trace.stream_ids[self.seq]]

    @property
    def wait_stream(self) -> str:
        sid = self.trace.wait_stream_ids[self.seq]
        return self.trace.streams[sid] if sid >= 0 else ""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceOp):
            return NotImplemented
        return self.trace is other.trace and self.seq == other.seq

    def __hash__(self) -> int:
        return hash((id(self.trace), self.seq))

    def __repr__(self) -> str:
        return f"TraceOp({self.ref()})"

    @property
    def touched(self) -> Tuple[str, ...]:
        """Buffers this op accesses on the device (reads + writes)."""
        touched = list(self.reads) + [w for w in self.writes
                                      if w not in self.reads]
        if self.buffer and self.kind in (OpKind.OFFLOAD, OpKind.PREFETCH) \
                and self.buffer not in touched:
            touched.append(self.buffer)
        return tuple(touched)

    def ref(self) -> str:
        """Compact evidence string for diagnostics."""
        return self.trace.ref(self.seq)


class ScheduleTrace:
    """Append-only columnar log of manager ops, with per-stream positions."""

    __slots__ = _COLUMNS + ("streams", "_stream_ids", "_last")

    def __init__(self) -> None:
        for name in _COLUMNS:
            setattr(self, name, [])
        #: Stream names by id, in order of first mention.
        self.streams: List[str] = []
        self._stream_ids: Dict[str, int] = {}
        self._last: List[int] = []     # stream id -> last issued position

    def __len__(self) -> int:
        return len(self.kinds)

    def stream_id(self, stream: str) -> int:
        """The id of ``stream``, numbering it if it is new."""
        sid = self._stream_ids.get(stream)
        if sid is None:
            sid = self._stream_ids[stream] = len(self.streams)
            self.streams.append(stream)
            self._last.append(-1)
        return sid

    def position(self, stream: str) -> int:
        """Last issued position on ``stream`` (-1 when none)."""
        sid = self._stream_ids.get(stream)
        return -1 if sid is None else self._last[sid]

    def ref(self, seq: int) -> str:
        """Compact evidence string for op ``seq`` in diagnostics."""
        kind = self.kinds[seq].value
        what = self.labels[seq] or self.buffers[seq] or kind
        stream = self.streams[self.stream_ids[seq]]
        return f"op#{seq} {stream}:{self.positions[seq]} {kind} {what}"

    def _push(self, kind: OpKind, sid: int, label: str, buffer: str,
              owner: int, nbytes: int, offset: int, size: int,
              reads: Tuple[str, ...], writes: Tuple[str, ...], layer: int,
              target_layer: int, wait_sid: int, wait_pos: int, phase: str,
              demand: bool, persistent: bool, start: float,
              end: float) -> TraceOp:
        pos = self._last[sid] + 1
        self._last[sid] = pos
        seq = len(self.kinds)
        self.kinds.append(kind)
        self.stream_ids.append(sid)
        self.positions.append(pos)
        self.labels.append(label)
        self.buffers.append(buffer)
        self.owners.append(owner)
        self.nbytes.append(nbytes)
        self.offsets.append(offset)
        self.sizes.append(size)
        self.reads.append(reads)
        self.writes.append(writes)
        self.layers.append(layer)
        self.target_layers.append(target_layer)
        self.wait_stream_ids.append(wait_sid)
        self.wait_positions.append(wait_pos)
        self.phases.append(phase)
        self.demands.append(demand)
        self.persistents.append(persistent)
        self.starts.append(start)
        self.ends.append(end)
        return TraceOp(self, seq)

    def _wait_id(self, wait_stream: str) -> int:
        return self.stream_id(wait_stream) if wait_stream else -1

    # -- builder API (used by the executor and by test fixtures) --------
    def alloc(self, buffer: str, nbytes: int, offset: int = -1,
              size: int = 0, label: str = "", layer: int = -1,
              owner: int = -1, persistent: bool = False,
              start: float = 0.0) -> TraceOp:
        return self._push(
            OpKind.ALLOC, self.stream_id(HOST_STREAM), label, buffer, owner,
            nbytes, offset, size or nbytes, (), (), layer, -1, -1, -1, "",
            False, persistent, start, start)

    def free(self, buffer: str, stream: str, offset: int = -1,
             size: int = 0, label: str = "", layer: int = -1,
             owner: int = -1, phase: str = "", start: float = 0.0) -> TraceOp:
        return self._push(
            OpKind.FREE, self.stream_id(stream), label, buffer, owner, 0,
            offset, size, (), (), layer, -1, -1, -1, phase, False, False,
            start, start)

    def kernel(self, label: str, stream: str, reads=(), writes=(),
               layer: int = -1, phase: str = "", start: float = 0.0,
               end: float = 0.0) -> TraceOp:
        return self._push(
            OpKind.KERNEL, self.stream_id(stream), label, "", -1, 0, -1, 0,
            tuple(reads), tuple(writes), layer, -1, -1, -1, phase, False,
            False, start, end)

    def offload(self, buffer: str, stream: str, nbytes: int = 0,
                label: str = "", layer: int = -1, owner: int = -1,
                target_layer: int = -1, wait_stream: str = "",
                wait_pos: int = -1, start: float = 0.0,
                end: float = 0.0) -> TraceOp:
        return self._push(
            OpKind.OFFLOAD, self.stream_id(stream), label, buffer, owner,
            nbytes, -1, 0, (buffer,), (), layer, target_layer,
            self._wait_id(wait_stream), wait_pos, "", False, False, start,
            end)

    def prefetch(self, buffer: str, stream: str, nbytes: int = 0,
                 label: str = "", layer: int = -1, owner: int = -1,
                 target_layer: int = -1, wait_stream: str = "",
                 wait_pos: int = -1, demand: bool = False,
                 start: float = 0.0, end: float = 0.0) -> TraceOp:
        return self._push(
            OpKind.PREFETCH, self.stream_id(stream), label, buffer, owner,
            nbytes, -1, 0, (), (buffer,), layer, target_layer,
            self._wait_id(wait_stream), wait_pos, "", demand, False, start,
            end)

    def sync(self, wait_stream: str, wait_pos: Optional[int] = None,
             label: str = "", layer: int = -1, start: float = 0.0) -> TraceOp:
        """Host join: wait for ``wait_stream`` through ``wait_pos``
        (default: everything issued on it so far)."""
        if wait_pos is None:
            wait_pos = self.position(wait_stream)
        return self._push(
            OpKind.SYNC, self.stream_id(HOST_STREAM), label, "", -1, 0, -1,
            0, (), (), layer, -1, self._wait_id(wait_stream), wait_pos, "",
            False, False, start, start)

    # -- queries ---------------------------------------------------------
    @property
    def ops(self) -> List[TraceOp]:
        """Every op, as views in issue order."""
        return [TraceOp(self, seq) for seq in range(len(self.kinds))]

    def of_kind(self, *kinds: OpKind) -> List[TraceOp]:
        return [TraceOp(self, seq) for seq, kind in enumerate(self.kinds)
                if kind in kinds]

    def on_stream(self, stream: str) -> List[TraceOp]:
        sid = self._stream_ids.get(stream)
        return [TraceOp(self, seq) for seq, op_sid
                in enumerate(self.stream_ids) if op_sid == sid]

    def without(self, *seqs: int) -> "ScheduleTrace":
        """A re-sequenced copy with the given ops dropped.

        The mutation-testing primitive: removing one SYNC from a valid
        schedule must make the verifier flag it.  Dropping an op shifts
        the later positions on its stream down, so every ``wait_pos`` on
        that stream drops by the number of removed positions at or below
        it: a wait keeps naming the op it named, or the last surviving
        one before it.  Stream ids are kept.
        """
        dropped = set(seqs)
        gone: Dict[int, List[int]] = {}   # stream id -> dropped positions
        for seq in sorted(dropped):
            if 0 <= seq < len(self.kinds):
                gone.setdefault(self.stream_ids[seq], []).append(
                    self.positions[seq])
        mutated = ScheduleTrace()
        mutated.streams = list(self.streams)
        mutated._stream_ids = dict(self._stream_ids)
        mutated._last = [-1] * len(self.streams)
        for seq, row in enumerate(zip(*(getattr(self, name)
                                        for name in _COLUMNS))):
            if seq in dropped:
                continue
            (kind, sid, _pos, label, buffer, owner, nbytes, offset, size,
             reads, writes, layer, target, wait_sid, wait_pos, phase,
             demand, persistent, start, end) = row
            if wait_pos >= 0 and wait_sid in gone:
                wait_pos -= bisect_right(gone[wait_sid], wait_pos)
            mutated._push(kind, sid, label, buffer, owner, nbytes, offset,
                          size, reads, writes, layer, target, wait_sid,
                          wait_pos, phase, demand, persistent, start, end)
        return mutated


def place_blocks(trace: ScheduleTrace) -> PoolAllocator:
    """Fill the ``offsets`` of every ALLOC and FREE row; returns the pool.

    cnmem places blocks best-fit (Section III-B), a function of the
    alloc/free sequence alone, so replaying the rows in ``seq`` order
    through an unbounded best-fit pool puts every block where a pool
    inside the walk would have.  A free pairs with its alloc by buffer
    name, as in the memory-safety replay.  The pool's ``peak_bytes`` is
    the walk's counted peak.
    """
    # Unbounded: the walk judged trainability on its peak alone.
    pool = PoolAllocator(1 << 50)
    live: Dict[str, Allocation] = {}
    offsets = trace.offsets
    for seq, (kind, buffer, nbytes) in enumerate(zip(
            trace.kinds, trace.buffers, trace.nbytes)):
        if kind is OpKind.ALLOC:
            allocation = live[buffer] = pool.alloc(nbytes)
            offsets[seq] = allocation.offset
        elif kind is OpKind.FREE:
            allocation = live.pop(buffer)
            pool.free(allocation)
            offsets[seq] = allocation.offset
    return pool
