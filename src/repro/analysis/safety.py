"""Memory-safety verification of schedule traces (pass 2).

Symbolically executes the manager's allocation schedule against the
:class:`~repro.alloc.pool.PoolAllocator` semantics the real executor
uses: every ``ALLOC`` opens a buffer lifetime at its recorded pool
placement, every ``FREE`` closes one, and every kernel/DMA access is
checked against the live set — in host issue order, which is the order
the pool itself observes.  Rules:

* **MS101** use-after-release / use-before-alloc;
* **MS102** double free (freeing a buffer with no live allocation);
* **MS103** leak: non-persistent blocks still live at iteration end;
* **MS104** overlap: a new allocation's byte range intersects a live
  buffer's range, or a released range an in-flight offload may still be
  reading (release raced the DMA, and the pool recycled the bytes —
  the corruption HB002 warns about actually materializing);
* **MS105** refcount-gate violation (Fig. 3): a feature map released
  in the forward pass before its last forward consumer was issued, or
  discarded without offload although backward still needs it — needs a
  :class:`~repro.core.liveness.LivenessAnalysis` to know the consumers,
  so it only runs when one is supplied.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from ..core.liveness import LivenessAnalysis
from .diagnostics import Diagnostic
from .hb import HBGraph
from .trace import OpKind, ScheduleTrace, TraceOp


@dataclass
class _LiveBlock:
    """One open buffer lifetime during the replay."""

    buffer: str
    alloc: TraceOp
    offloads: List[TraceOp]

    @property
    def has_range(self) -> bool:
        return self.alloc.offset >= 0 and self.alloc.size > 0

    @property
    def range(self) -> Tuple[int, int]:
        return (self.alloc.offset, self.alloc.offset + self.alloc.size)


@dataclass
class _HotRange:
    """Released bytes an unsynchronized offload may still be reading."""

    lo: int
    hi: int
    buffer: str
    transfer: TraceOp


class _OffsetIndex:
    """Live placed ranges sorted by pool offset, while they are disjoint.

    On a valid trace no two live blocks share a byte, so one bisect
    answers whether a new range overlaps anything.  The first overlap
    or double allocation sets ``usable`` to False for the rest of the
    trace, and the replay falls back to scanning the live set, which
    reports the findings in their exact order.
    """

    def __init__(self) -> None:
        self.los: List[int] = []
        self.his: List[int] = []
        self.usable = True

    def claim(self, lo: int, hi: int) -> bool:
        """Insert ``[lo, hi)``; False (index unchanged) on an overlap."""
        # The last range starting below ``hi`` ends furthest right of
        # all candidates: it alone can reach past ``lo``.
        i = bisect_left(self.los, hi)
        if i and self.his[i - 1] > lo:
            return False
        self.los.insert(i, lo)
        self.his.insert(i, hi)
        return True

    def release(self, lo: int) -> None:
        i = bisect_left(self.los, lo)
        del self.los[i]
        del self.his[i]


def _overlaps(lo_a: int, hi_a: int, lo_b: int, hi_b: int) -> bool:
    return lo_a < hi_b and lo_b < hi_a


def check_memory_safety(
    trace: ScheduleTrace,
    hb: Optional[HBGraph] = None,
    liveness: Optional[LivenessAnalysis] = None,
    subject: str = "",
) -> List[Diagnostic]:
    """Replay the trace's allocation schedule; returns MS1xx findings."""
    hb = hb or HBGraph(trace)
    diagnostics: List[Diagnostic] = []

    def report(rule: str, message: str, *ops: TraceOp) -> None:
        diagnostics.append(Diagnostic.make(
            rule, message, subject=subject, refs=[op.ref() for op in ops]))

    live: Dict[str, _LiveBlock] = {}
    hot: List[_HotRange] = []
    index = _OffsetIndex()
    issued_kernels: Set[Tuple[int, str]] = set()  # (layer_index, phase)
    flagged_missing: Set[str] = set()

    for op in trace.ops:
        if op.kind is OpKind.ALLOC:
            _replay_alloc(op, live, hot, index, report)
        elif op.kind is OpKind.FREE:
            _replay_free(op, live, hot, index, hb, liveness, issued_kernels,
                         report)
        elif op.kind is OpKind.SYNC:
            # The join guarantees every op on wait_stream through
            # wait_pos completed: their reads of released bytes are over.
            hot[:] = [h for h in hot
                      if not (h.transfer.stream == op.wait_stream
                              and h.transfer.pos <= op.wait_pos)]
        else:
            if op.kind is OpKind.KERNEL and op.layer_index >= 0:
                issued_kernels.add((op.layer_index, op.phase))
            for buffer in op.touched:
                block = live.get(buffer)
                if block is None:
                    if buffer not in flagged_missing:
                        flagged_missing.add(buffer)
                        report(
                            "MS101",
                            f"{buffer} accessed by {op.kind.value} "
                            f"{op.label or ''} with no live allocation "
                            f"(use after release, or never allocated)",
                            op)
                elif op.kind is OpKind.OFFLOAD and buffer == op.buffer:
                    block.offloads.append(op)

    for buffer, block in sorted(live.items()):
        if not block.alloc.persistent:
            report(
                "MS103",
                f"{buffer} ({block.alloc.nbytes} bytes) still live at "
                f"iteration end: leaked",
                block.alloc)
    return diagnostics


def _replay_alloc(op: TraceOp, live: Dict[str, _LiveBlock],
                  hot: List[_HotRange], index: _OffsetIndex,
                  report) -> None:
    if op.buffer in live:
        report(
            "MS104",
            f"{op.buffer} allocated twice without an intervening free",
            live[op.buffer].alloc, op)
        index.usable = False
    block = _LiveBlock(buffer=op.buffer, alloc=op, offloads=[])
    if block.has_range:
        lo, hi = block.range
        if not (index.usable and index.claim(lo, hi)):
            # The index cannot say which blocks overlap, nor in what
            # order to report them: scan the live set from here on.
            index.usable = False
            for other in live.values():
                if other.buffer != op.buffer and other.has_range and \
                        _overlaps(lo, hi, *other.range):
                    report(
                        "MS104",
                        f"{op.buffer} at [{lo}, {hi}) overlaps live "
                        f"buffer {other.buffer} at "
                        f"[{other.range[0]}, {other.range[1]})",
                        op, other.alloc)
        for entry in hot:
            if _overlaps(lo, hi, entry.lo, entry.hi):
                report(
                    "MS104",
                    f"{op.buffer} at [{lo}, {hi}) reuses bytes of "
                    f"{entry.buffer} while its offload may still be "
                    f"reading them",
                    op, entry.transfer)
    live[op.buffer] = block


def _replay_free(op: TraceOp, live: Dict[str, _LiveBlock],
                 hot: List[_HotRange], index: _OffsetIndex, hb: HBGraph,
                 liveness: Optional[LivenessAnalysis],
                 issued_kernels: Set[Tuple[int, str]], report) -> None:
    block = live.pop(op.buffer, None)
    if block is None:
        report(
            "MS102",
            f"{op.buffer} freed while not live (double free)",
            op)
        return
    # Bytes released under an in-flight, unsynchronized offload stay
    # "hot": a later allocation landing on them is real corruption.
    if block.has_range:
        lo, hi = block.range
        if index.usable:
            index.release(lo)
        for transfer in block.offloads:
            if not hb.happens_before(transfer, op):
                hot.append(_HotRange(lo=lo, hi=hi, buffer=op.buffer,
                                     transfer=transfer))
    if liveness is not None and op.phase == "fwd" and op.owner >= 0:
        _check_refcount_gate(op, block, liveness, issued_kernels, report)


def _check_refcount_gate(op: TraceOp, block: _LiveBlock,
                         liveness: LivenessAnalysis,
                         issued_kernels: Set[Tuple[int, str]],
                         report) -> None:
    storage = liveness.storages.get(op.owner)
    if storage is None:
        return
    gate = storage.forward_release_at
    if (gate, "fwd") not in issued_kernels:
        report(
            "MS105",
            f"{op.buffer} released before its last forward consumer "
            f"(layer {gate}) was issued: refcount gate violated",
            op)
    elif storage.needed_backward and not block.offloads:
        report(
            "MS105",
            f"{op.buffer} discarded without offload although backward "
            f"layers {storage.backward_users} still need it",
            op)
