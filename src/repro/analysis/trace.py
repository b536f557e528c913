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
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

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


@dataclass(frozen=True)
class TraceOp:
    """One operation the memory manager issued."""

    seq: int                      # global issue order
    pos: int                      # issue index within ``stream``
    kind: OpKind
    stream: str
    label: str = ""
    buffer: str = ""              # buffer id for alloc/free/transfer ops
    owner: int = -1               # storage-owner layer for feature buffers
    nbytes: int = 0
    offset: int = -1              # pool placement (-1: unknown/not modeled)
    size: int = 0                 # aligned size actually reserved
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    layer_index: int = -1         # layer whose step issued the op
    target_layer: int = -1        # transfer trigger layer (Fig. 10 walk)
    wait_stream: str = ""         # event/sync dependency: stream ...
    wait_pos: int = -1            # ... completed through this position
    phase: str = ""               # "fwd" | "bwd" | "end" (kernels, frees)
    demand: bool = False          # blocking demand fetch, not a prefetch
    persistent: bool = False      # legitimately outlives the iteration
    start: float = 0.0            # timeline anchors (rendering only)
    end: float = 0.0

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
        what = self.label or self.buffer or self.kind.value
        return f"op#{self.seq} {self.stream}:{self.pos} {self.kind.value} {what}"


class ScheduleTrace:
    """Append-only log of manager ops, with per-stream positions."""

    def __init__(self) -> None:
        self.ops: List[TraceOp] = []
        self._positions: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.ops)

    def position(self, stream: str) -> int:
        """Last issued position on ``stream`` (-1 when none)."""
        return self._positions.get(stream, -1)

    def _append(self, kind: OpKind, stream: str, **kw) -> TraceOp:
        pos = self._positions.get(stream, -1) + 1
        self._positions[stream] = pos
        op = TraceOp(seq=len(self.ops), pos=pos, kind=kind, stream=stream, **kw)
        self.ops.append(op)
        return op

    # -- builder API (used by the executor and by test fixtures) --------
    def alloc(self, buffer: str, nbytes: int, offset: int = -1,
              size: int = 0, label: str = "", layer: int = -1,
              owner: int = -1, persistent: bool = False,
              start: float = 0.0) -> TraceOp:
        return self._append(
            OpKind.ALLOC, HOST_STREAM, buffer=buffer, nbytes=nbytes,
            offset=offset, size=size or nbytes, label=label,
            layer_index=layer, owner=owner, persistent=persistent,
            start=start, end=start,
        )

    def free(self, buffer: str, stream: str, offset: int = -1,
             size: int = 0, label: str = "", layer: int = -1,
             owner: int = -1, phase: str = "", start: float = 0.0) -> TraceOp:
        return self._append(
            OpKind.FREE, stream, buffer=buffer, offset=offset, size=size,
            label=label, layer_index=layer, owner=owner, phase=phase,
            start=start, end=start,
        )

    def kernel(self, label: str, stream: str, reads=(), writes=(),
               layer: int = -1, phase: str = "", start: float = 0.0,
               end: float = 0.0) -> TraceOp:
        return self._append(
            OpKind.KERNEL, stream, label=label, reads=tuple(reads),
            writes=tuple(writes), layer_index=layer, phase=phase,
            start=start, end=end,
        )

    def offload(self, buffer: str, stream: str, nbytes: int = 0,
                label: str = "", layer: int = -1, owner: int = -1,
                target_layer: int = -1, wait_stream: str = "",
                wait_pos: int = -1, start: float = 0.0,
                end: float = 0.0) -> TraceOp:
        return self._append(
            OpKind.OFFLOAD, stream, buffer=buffer, nbytes=nbytes,
            label=label, layer_index=layer, owner=owner,
            target_layer=target_layer, wait_stream=wait_stream,
            wait_pos=wait_pos, reads=(buffer,), start=start, end=end,
        )

    def prefetch(self, buffer: str, stream: str, nbytes: int = 0,
                 label: str = "", layer: int = -1, owner: int = -1,
                 target_layer: int = -1, wait_stream: str = "",
                 wait_pos: int = -1, demand: bool = False,
                 start: float = 0.0, end: float = 0.0) -> TraceOp:
        return self._append(
            OpKind.PREFETCH, stream, buffer=buffer, nbytes=nbytes,
            label=label, layer_index=layer, owner=owner,
            target_layer=target_layer, wait_stream=wait_stream,
            wait_pos=wait_pos, demand=demand, writes=(buffer,),
            start=start, end=end,
        )

    def sync(self, wait_stream: str, wait_pos: Optional[int] = None,
             label: str = "", layer: int = -1, start: float = 0.0) -> TraceOp:
        """Host join: wait for ``wait_stream`` through ``wait_pos``
        (default: everything issued on it so far)."""
        if wait_pos is None:
            wait_pos = self.position(wait_stream)
        return self._append(
            OpKind.SYNC, HOST_STREAM, wait_stream=wait_stream,
            wait_pos=wait_pos, label=label, layer_index=layer,
            start=start, end=start,
        )

    # -- queries ---------------------------------------------------------
    def of_kind(self, *kinds: OpKind) -> List[TraceOp]:
        return [op for op in self.ops if op.kind in kinds]

    def on_stream(self, stream: str) -> List[TraceOp]:
        return [op for op in self.ops if op.stream == stream]

    def without(self, *seqs: int) -> "ScheduleTrace":
        """A re-sequenced copy with the given ops dropped.

        The mutation-testing primitive: removing one SYNC from a valid
        schedule must make the verifier flag it.  Dropping an op shifts
        the later positions on its stream down, so every ``wait_pos`` on
        that stream drops by the number of removed positions at or below
        it: a wait keeps naming the op it named, or the last surviving
        one before it.
        """
        dropped = set(seqs)
        gone: Dict[str, List[int]] = {}   # stream -> dropped positions
        for op in self.ops:
            if op.seq in dropped:
                gone.setdefault(op.stream, []).append(op.pos)
        mutated = ScheduleTrace()
        for op in self.ops:
            if op.seq in dropped:
                continue
            wait_pos = op.wait_pos
            if wait_pos >= 0 and op.wait_stream in gone:
                wait_pos -= bisect_right(gone[op.wait_stream], wait_pos)
            kw = {
                "label": op.label, "buffer": op.buffer, "owner": op.owner,
                "nbytes": op.nbytes, "offset": op.offset, "size": op.size,
                "reads": op.reads, "writes": op.writes,
                "layer_index": op.layer_index,
                "target_layer": op.target_layer,
                "wait_stream": op.wait_stream, "wait_pos": wait_pos,
                "phase": op.phase, "demand": op.demand,
                "persistent": op.persistent,
                "start": op.start, "end": op.end,
            }
            mutated._append(op.kind, op.stream, **kw)
        return mutated
