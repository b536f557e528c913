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
from typing import Dict, List, Optional, Set

from ..core.liveness import LivenessAnalysis
from .diagnostics import Diagnostic
from .hb import HBGraph
from .trace import OpKind, ScheduleTrace

_ALLOC, _FREE, _KERNEL = OpKind.ALLOC, OpKind.FREE, OpKind.KERNEL
_OFFLOAD, _PREFETCH, _SYNC = OpKind.OFFLOAD, OpKind.PREFETCH, OpKind.SYNC


class _LiveBlock:
    """One open buffer lifetime during the replay."""

    __slots__ = ("buffer", "alloc", "lo", "hi", "offloads")

    def __init__(self, buffer: str, alloc: int, offset: int,
                 size: int) -> None:
        self.buffer = buffer
        self.alloc = alloc          # seq of the ALLOC that opened it
        # Placed byte range [lo, hi); empty when the trace does not
        # model the placement.
        placed = offset >= 0 and size > 0
        self.lo = offset if placed else 0
        self.hi = offset + size if placed else 0
        self.offloads: List[int] = []   # seqs of its offload transfers


class _HotRange:
    """Released bytes an unsynchronized offload may still be reading."""

    __slots__ = ("lo", "hi", "buffer", "transfer", "sid", "pos")

    def __init__(self, lo: int, hi: int, buffer: str, transfer: int,
                 sid: int, pos: int) -> None:
        self.lo, self.hi, self.buffer = lo, hi, buffer
        # The transfer's seq and its (stream id, position).
        self.transfer, self.sid, self.pos = transfer, sid, pos


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
    clock = hb.clock
    sids, positions = trace.stream_ids, trace.positions
    diagnostics: List[Diagnostic] = []

    def report(rule: str, message: str, *seqs: int) -> None:
        diagnostics.append(Diagnostic.make(
            rule, message, subject=subject,
            refs=[trace.ref(seq) for seq in seqs]))

    live: Dict[str, _LiveBlock] = {}
    hot: List[_HotRange] = []
    index = _OffsetIndex()
    fwd_kernels: Set[int] = set()   # layers whose forward kernel issued
    flagged_missing: Set[str] = set()

    for seq, (kind, buffer, offset, size, reads, writes, layer, phase,
              owner, wait_sid, wait_pos) in enumerate(zip(
            trace.kinds, trace.buffers, trace.offsets, trace.sizes,
            trace.reads, trace.writes, trace.layers, trace.phases,
            trace.owners, trace.wait_stream_ids, trace.wait_positions)):
        if kind is _ALLOC:
            _replay_alloc(_LiveBlock(buffer, seq, offset, size), live, hot,
                          index, report)
        elif kind is _FREE:
            block = live.pop(buffer, None)
            if block is None:
                report(
                    "MS102",
                    f"{buffer} freed while not live (double free)",
                    seq)
                continue
            # Bytes released under an in-flight, unsynchronized offload
            # stay "hot": a later allocation landing on them is real
            # corruption.
            if block.lo < block.hi:
                if index.usable:
                    index.release(block.lo)
                free_clock = clock[seq]
                for transfer in block.offloads:
                    if free_clock[sids[transfer]] < positions[transfer]:
                        hot.append(_HotRange(
                            block.lo, block.hi, buffer, transfer,
                            sids[transfer], positions[transfer]))
            if liveness is not None and phase == "fwd" and owner >= 0:
                _check_refcount_gate(trace, seq, block, liveness,
                                     fwd_kernels, report)
        elif kind is _SYNC:
            # The join guarantees every op on the waited stream through
            # wait_pos completed: their reads of released bytes are over.
            if hot:
                hot[:] = [h for h in hot
                          if not (h.sid == wait_sid and h.pos <= wait_pos)]
        else:
            if kind is _KERNEL and layer >= 0 and phase == "fwd":
                fwd_kernels.add(layer)
            touched = reads
            if writes:
                touched = reads + tuple(w for w in writes if w not in reads)
            if buffer and (kind is _OFFLOAD or kind is _PREFETCH) \
                    and buffer not in touched:
                touched += (buffer,)
            for name in touched:
                block = live.get(name)
                if block is None:
                    if name not in flagged_missing:
                        flagged_missing.add(name)
                        report(
                            "MS101",
                            f"{name} accessed by {kind.value} "
                            f"{trace.labels[seq] or ''} with no live "
                            f"allocation (use after release, or never "
                            f"allocated)",
                            seq)
                elif kind is _OFFLOAD and name == buffer:
                    block.offloads.append(seq)

    for buffer, block in sorted(live.items()):
        if not trace.persistents[block.alloc]:
            report(
                "MS103",
                f"{buffer} ({trace.nbytes[block.alloc]} bytes) still live "
                f"at iteration end: leaked",
                block.alloc)
    return diagnostics


def _replay_alloc(block: _LiveBlock, live: Dict[str, _LiveBlock],
                  hot: List[_HotRange], index: _OffsetIndex,
                  report) -> None:
    buffer, seq = block.buffer, block.alloc
    if buffer in live:
        report(
            "MS104",
            f"{buffer} allocated twice without an intervening free",
            live[buffer].alloc, seq)
        index.usable = False
    lo, hi = block.lo, block.hi
    if lo < hi:
        if not (index.usable and index.claim(lo, hi)):
            # The index cannot say which blocks overlap, nor in what
            # order to report them: scan the live set from here on.
            index.usable = False
            for other in live.values():
                if other.buffer != buffer and other.lo < other.hi and \
                        _overlaps(lo, hi, other.lo, other.hi):
                    report(
                        "MS104",
                        f"{buffer} at [{lo}, {hi}) overlaps live "
                        f"buffer {other.buffer} at "
                        f"[{other.lo}, {other.hi})",
                        seq, other.alloc)
        for entry in hot:
            if _overlaps(lo, hi, entry.lo, entry.hi):
                report(
                    "MS104",
                    f"{buffer} at [{lo}, {hi}) reuses bytes of "
                    f"{entry.buffer} while its offload may still be "
                    f"reading them",
                    seq, entry.transfer)
    live[buffer] = block


def _check_refcount_gate(trace: ScheduleTrace, seq: int, block: _LiveBlock,
                         liveness: LivenessAnalysis, fwd_kernels: Set[int],
                         report) -> None:
    storage = liveness.storages.get(trace.owners[seq])
    if storage is None:
        return
    buffer = trace.buffers[seq]
    gate = storage.forward_release_at
    if gate not in fwd_kernels:
        report(
            "MS105",
            f"{buffer} released before its last forward consumer "
            f"(layer {gate}) was issued: refcount gate violated",
            seq)
    elif storage.needed_backward and not block.offloads:
        report(
            "MS105",
            f"{buffer} discarded without offload although backward "
            f"layers {list(storage.backward_users)} still need it",
            seq)
