"""Happens-before race detection over schedule traces (pass 1).

Builds the happens-before relation of one :class:`ScheduleTrace` with a
single forward scan (vector clocks keyed by stream), then checks the
ordering invariants vDNN's correctness rests on:

* **HB001** — generic race: two accesses to one buffer epoch on
  different streams, at least one a write (or the epoch's release), with
  no happens-before path in either direction.
* **HB002** — release-before-transfer-complete: an offloaded feature
  map's pool block is released without an ordering edge from the offload
  DMA (the end-of-layer synchronization of Section III-B is what
  normally provides it).
* **HB003** — use-before-prefetch-complete: a backward kernel reads a
  restored buffer without an ordering edge from the prefetch DMA (the
  "guaranteed to be ready before layer(n-1)" sync of Section III-C).
* **HB004** (warning) — prefetch outside the Fig. 10 CONV-bounded
  search window: the restored X sits live across an intervening CONV
  layer's backward step, exactly the eager-prefetch behavior the
  bounded window exists to prevent.

The vector-clock model (see docs/analysis.md for the derivation):
streams execute their own ops in order; ``ALLOC``/``SYNC`` are
host-synchronous, so they are ordered with everything issued later;
``FREE`` is stream-ordered (cnmem's asynchronous release); kernels and
transfers are asynchronous, ordered across streams only through a sync
or an explicit event wait.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..graph.layer import LayerKind
from ..graph.network import Network
from .diagnostics import Diagnostic
from .trace import OpKind, ScheduleTrace, TraceOp


class HBGraph:
    """The happens-before relation of one trace, as per-op vector clocks.

    ``clock[i][stream]`` is the highest position on ``stream`` whose op
    is guaranteed complete before op ``i`` *starts*; ``a`` happens-before
    ``b`` iff ``clock[b][a.stream] >= a.pos``.
    """

    def __init__(self, trace: ScheduleTrace):
        self.trace = trace
        self.clock: List[Dict[str, int]] = []
        self._by_position: Dict[Tuple[str, int], int] = {
            (op.stream, op.pos): op.seq for op in trace.ops
        }
        self._build()

    def _build(self) -> None:
        host: Dict[str, int] = {}      # completions the host has observed
        last_on: Dict[str, int] = {}   # stream -> seq of its latest op
        for op in self.trace.ops:
            clock = dict(host)
            if not op.kind.host_synchronous:
                # In-order stream: the previous op on this stream (and
                # everything it saw) completes before this one starts.
                prev = last_on.get(op.stream)
                if prev is not None:
                    self._merge(clock, self.clock[prev])
                    prev_op = self.trace.ops[prev]
                    clock[op.stream] = max(clock.get(op.stream, -1),
                                           prev_op.pos)
            if op.wait_stream and op.wait_pos >= 0:
                # SYNC, or an async op gated on an event ("everything on
                # wait_stream through wait_pos has completed").
                clock[op.wait_stream] = max(clock.get(op.wait_stream, -1),
                                            op.wait_pos)
                waited = self._by_position.get((op.wait_stream, op.wait_pos))
                if waited is None or waited >= op.seq:
                    raise ValueError(
                        f"{op.ref()} waits on {op.wait_stream}:"
                        f"{op.wait_pos}, which is not issued before it")
                self._merge(clock, self.clock[waited])
            self.clock.append(clock)
            last_on[op.stream] = op.seq
            if op.kind.host_synchronous:
                # Completes at issue: the host observes it (and its
                # whole past) immediately.
                self._merge(host, clock)
                host[op.stream] = max(host.get(op.stream, -1), op.pos)

    @staticmethod
    def _merge(into: Dict[str, int], other: Dict[str, int]) -> None:
        for stream, pos in other.items():
            if into.get(stream, -1) < pos:
                into[stream] = pos

    # ------------------------------------------------------------------
    def happens_before(self, a: TraceOp, b: TraceOp) -> bool:
        """True when ``a`` is guaranteed complete before ``b`` starts."""
        return self.clock[b.seq].get(a.stream, -1) >= a.pos

    def ordered(self, a: TraceOp, b: TraceOp) -> bool:
        """True when the pair is ordered in either direction."""
        return self.happens_before(a, b) or self.happens_before(b, a)


@dataclass
class _Epoch:
    """One buffer lifetime: ALLOC .. FREE with the accesses in between."""

    buffer: str
    alloc: Optional[TraceOp]
    free: Optional[TraceOp] = None
    accesses: List[Tuple[TraceOp, str]] = field(default_factory=list)  # op, "r"/"w"


def _collect_epochs(trace: ScheduleTrace) -> List[_Epoch]:
    epochs: List[_Epoch] = []
    open_epochs: Dict[str, _Epoch] = {}

    def epoch_for(buffer: str) -> _Epoch:
        epoch = open_epochs.get(buffer)
        if epoch is None:
            # Access to a buffer with no open lifetime: safety pass
            # reports it (MS101/MS102); keep an implicit epoch so the
            # ordering rules still apply to whatever else touches it.
            epoch = _Epoch(buffer=buffer, alloc=None)
            open_epochs[buffer] = epoch
            epochs.append(epoch)
        return epoch

    for op in trace.ops:
        if op.kind is OpKind.ALLOC:
            epoch = _Epoch(buffer=op.buffer, alloc=op)
            open_epochs[op.buffer] = epoch
            epochs.append(epoch)
        elif op.kind is OpKind.FREE:
            epoch = epoch_for(op.buffer)
            epoch.free = op
            del open_epochs[op.buffer]
        else:
            for buffer in op.reads:
                epoch_for(buffer).accesses.append((op, "r"))
            for buffer in op.writes:
                epoch_for(buffer).accesses.append((op, "w"))
    return epochs


def check_races(
    trace: ScheduleTrace,
    hb: Optional[HBGraph] = None,
    network: Optional[Network] = None,
    subject: str = "",
) -> List[Diagnostic]:
    """Run the HB001-HB004 rules; returns the diagnostics found."""
    hb = hb or HBGraph(trace)
    diagnostics: List[Diagnostic] = []
    reported: Set[Tuple[int, int]] = set()

    def report(rule: str, message: str, *ops: TraceOp) -> None:
        if len(ops) == 2:
            reported.add((ops[0].seq, ops[1].seq))
            reported.add((ops[1].seq, ops[0].seq))
        diagnostics.append(Diagnostic.make(
            rule, message, subject=subject,
            refs=[op.ref() for op in ops]))

    epochs = _collect_epochs(trace)
    for epoch in epochs:
        if epoch.free is not None:
            # HB002: every offload of this lifetime must complete before
            # the release recycles its bytes.
            for op, _mode in epoch.accesses:
                if op.kind is OpKind.OFFLOAD and \
                        not hb.happens_before(op, epoch.free):
                    report(
                        "HB002",
                        f"{epoch.buffer} released while its offload may "
                        f"still be reading device memory",
                        op, epoch.free)
            # Release racing any other access (reads included: freeing a
            # buffer a kernel may still be reading is a race).
            for op, _mode in epoch.accesses:
                if (op.seq, epoch.free.seq) in reported:
                    continue
                if op.stream != epoch.free.stream and \
                        not hb.ordered(op, epoch.free):
                    report(
                        "HB001",
                        f"{epoch.buffer} released concurrently with an "
                        f"unordered {op.kind.value} access",
                        op, epoch.free)

        # HB003: prefetched data must land before any kernel reads it.
        transfers_in = [op for op, mode in epoch.accesses
                        if op.kind is OpKind.PREFETCH]
        for transfer in transfers_in:
            for op, mode in epoch.accesses:
                if op.kind is OpKind.KERNEL and mode == "r" \
                        and op.seq > transfer.seq \
                        and not hb.happens_before(transfer, op):
                    report(
                        "HB003",
                        f"{epoch.buffer} read by {op.label or 'a kernel'} "
                        f"before its prefetch is guaranteed complete",
                        transfer, op)
                    break  # one finding per unsynchronized transfer

        # HB001: remaining unordered conflicting access pairs.
        for i, (a, mode_a) in enumerate(epoch.accesses):
            for b, mode_b in epoch.accesses[i + 1:]:
                if a.stream == b.stream:
                    continue
                if mode_a == "r" and mode_b == "r":
                    continue
                if (a.seq, b.seq) in reported:
                    continue
                if not hb.ordered(a, b):
                    report(
                        "HB001",
                        f"unordered {mode_a}/{mode_b} accesses to "
                        f"{epoch.buffer} on different streams",
                        a, b)

    if network is not None:
        diagnostics.extend(_check_prefetch_window(trace, network, subject))
    return diagnostics


def _check_prefetch_window(
    trace: ScheduleTrace, network: Network, subject: str
) -> List[Diagnostic]:
    """HB004: re-derive the Fig. 10 window bound for every prefetch.

    ``findPrefetchLayer`` walking down from layer ``n`` stops at the
    first CONV layer that does not itself need prefetching, so a bounded
    search can never return a target ``t`` with a CONV layer strictly
    between ``t`` and ``n`` that either never offloaded or was already
    prefetched.  Any prefetch violating that was found by an unbounded
    (or buggy) search.  Only the CONV ids in that range are visited,
    lowest first, so the reported CONV is the lowest violating one.
    """
    diagnostics: List[Diagnostic] = []
    offload_triggers = {op.target_layer
                        for op in trace.of_kind(OpKind.OFFLOAD)
                        if op.target_layer >= 0}
    convs = [node.index for node in network if node.kind is LayerKind.CONV]
    prefetched: Set[int] = set()
    for op in trace.of_kind(OpKind.PREFETCH):
        target, issue = op.target_layer, op.layer_index
        if op.demand or target < 0 or issue < 0:
            continue
        for position in range(bisect_right(convs, target), len(convs)):
            between = convs[position]
            if between >= issue:
                break
            if between not in offload_triggers or between in prefetched:
                diagnostics.append(Diagnostic.make(
                    "HB004",
                    f"prefetch of layer {target}'s X during backward of "
                    f"layer {issue} skips past CONV layer {between} "
                    f"({network[between].name}): outside the Fig. 10 "
                    f"search window",
                    subject=subject, refs=[op.ref()]))
                break
        prefetched.add(target)
    return diagnostics
