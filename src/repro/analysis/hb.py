"""Happens-before race detection over schedule traces (pass 1).

Builds the happens-before relation of one :class:`ScheduleTrace` with a
single forward scan over its columns (vector clocks indexed by stream
id), then checks the ordering invariants vDNN's correctness rests on:

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

_ALLOC, _FREE, _KERNEL = OpKind.ALLOC, OpKind.FREE, OpKind.KERNEL
_OFFLOAD, _PREFETCH, _SYNC = OpKind.OFFLOAD, OpKind.PREFETCH, OpKind.SYNC


class HBGraph:
    """The happens-before relation of one trace, as per-op vector clocks.

    ``clock[i][sid]`` is the highest position on the stream numbered
    ``sid`` (``trace.streams[sid]``) whose op is guaranteed complete
    before op ``i`` *starts*; ``a`` happens-before ``b`` iff
    ``clock[b][a's stream id] >= a.pos``.
    """

    def __init__(self, trace: ScheduleTrace):
        self.trace = trace
        self.clock: List[List[int]] = []
        streams = len(trace.streams)
        clocks = self.clock
        host = [-1] * streams       # completions the host has observed
        # stream id -> seq of the op at each position, filled as issued:
        # a wait can only name an op already in it.
        issued: List[List[int]] = [[] for _ in range(streams)]
        for seq, (kind, sid, pos, wait_sid, wait_pos) in enumerate(zip(
                trace.kinds, trace.stream_ids, trace.positions,
                trace.wait_stream_ids, trace.wait_positions)):
            synchronous = kind is _ALLOC or kind is _SYNC
            if synchronous or not pos:
                clock = host[:]
            else:
                # In-order stream: the previous op on this stream (and
                # everything it saw) completes before this one starts.
                # A clock only names issued positions, so pos - 1 (the
                # previous op) is already the highest on this stream.
                clock = [a if a > b else b
                         for a, b in zip(host, clocks[issued[sid][-1]])]
                clock[sid] = pos - 1
            if wait_sid >= 0 and wait_pos >= 0:
                # SYNC, or an async op gated on an event ("everything on
                # the waited stream through wait_pos has completed").
                waited = issued[wait_sid]
                if wait_pos >= len(waited):
                    raise ValueError(
                        f"{trace.ref(seq)} waits on "
                        f"{trace.streams[wait_sid]}:{wait_pos}, which is "
                        f"not issued before it")
                clock = [a if a > b else b
                         for a, b in zip(clock, clocks[waited[wait_pos]])]
                if clock[wait_sid] < wait_pos:
                    clock[wait_sid] = wait_pos
            clocks.append(clock)
            issued[sid].append(seq)
            if synchronous:
                # Completes at issue: the host observes it (and its
                # whole past, which already includes the host's) now.
                host = clock[:]
                host[sid] = pos

    # ------------------------------------------------------------------
    def before(self, a: int, b: int) -> bool:
        """``happens_before`` on op seqs."""
        trace = self.trace
        return self.clock[b][trace.stream_ids[a]] >= trace.positions[a]

    def happens_before(self, a: TraceOp, b: TraceOp) -> bool:
        """True when ``a`` is guaranteed complete before ``b`` starts."""
        return self.before(a.seq, b.seq)

    def ordered(self, a: TraceOp, b: TraceOp) -> bool:
        """True when the pair is ordered in either direction."""
        return self.before(a.seq, b.seq) or self.before(b.seq, a.seq)


@dataclass
class _Epoch:
    """One buffer lifetime: ALLOC .. FREE with the accesses in between.

    ``alloc``/``free`` are op seqs (-1: none); ``accesses`` and
    ``writes`` are parallel: the seq of each access, in issue order
    (an op's reads before its writes), and whether it writes.
    """

    buffer: str
    alloc: int = -1
    free: int = -1
    accesses: List[int] = field(default_factory=list)
    writes: List[bool] = field(default_factory=list)


def _collect_epochs(trace: ScheduleTrace) -> List[_Epoch]:
    epochs: List[_Epoch] = []
    open_epochs: Dict[str, _Epoch] = {}

    def epoch_for(buffer: str) -> _Epoch:
        epoch = open_epochs.get(buffer)
        if epoch is None:
            # Access to a buffer with no open lifetime: safety pass
            # reports it (MS101/MS102); keep an implicit epoch so the
            # ordering rules still apply to whatever else touches it.
            epoch = _Epoch(buffer=buffer)
            open_epochs[buffer] = epoch
            epochs.append(epoch)
        return epoch

    for seq, (kind, buffer, reads, writes) in enumerate(zip(
            trace.kinds, trace.buffers, trace.reads, trace.writes)):
        if kind is _ALLOC:
            epoch = _Epoch(buffer=buffer, alloc=seq)
            open_epochs[buffer] = epoch
            epochs.append(epoch)
        elif kind is _FREE:
            epoch_for(buffer).free = seq
            del open_epochs[buffer]
        else:
            for buffer in reads:
                epoch = epoch_for(buffer)
                epoch.accesses.append(seq)
                epoch.writes.append(False)
            for buffer in writes:
                epoch = epoch_for(buffer)
                epoch.accesses.append(seq)
                epoch.writes.append(True)
    return epochs


def check_races(
    trace: ScheduleTrace,
    hb: Optional[HBGraph] = None,
    network: Optional[Network] = None,
    subject: str = "",
) -> List[Diagnostic]:
    """Run the HB001-HB004 rules; returns the diagnostics found."""
    hb = hb or HBGraph(trace)
    clock = hb.clock
    kinds, sids, positions = trace.kinds, trace.stream_ids, trace.positions
    diagnostics: List[Diagnostic] = []
    reported: Set[Tuple[int, int]] = set()

    def report(rule: str, message: str, *seqs: int) -> None:
        if len(seqs) == 2:
            reported.add((seqs[0], seqs[1]))
            reported.add((seqs[1], seqs[0]))
        diagnostics.append(Diagnostic.make(
            rule, message, subject=subject,
            refs=[trace.ref(seq) for seq in seqs]))

    for epoch in _collect_epochs(trace):
        accesses = epoch.accesses
        free = epoch.free
        if free >= 0:
            free_sid = sids[free]
            free_clock = clock[free]
            # HB002: every offload of this lifetime must complete before
            # the release recycles its bytes.
            for seq in accesses:
                if kinds[seq] is _OFFLOAD and \
                        free_clock[sids[seq]] < positions[seq]:
                    report(
                        "HB002",
                        f"{epoch.buffer} released while its offload may "
                        f"still be reading device memory",
                        seq, free)
            # Release racing any other access (reads included: freeing a
            # buffer a kernel may still be reading is a race).  Every
            # access was issued before the release, so only the access
            # can be ordered first.
            for seq in accesses:
                sid = sids[seq]
                if sid != free_sid and (seq, free) not in reported \
                        and free_clock[sid] < positions[seq]:
                    report(
                        "HB001",
                        f"{epoch.buffer} released concurrently with an "
                        f"unordered {kinds[seq].value} access",
                        seq, free)

        # HB003: prefetched data must land before any kernel reads it.
        for transfer in accesses:
            if kinds[transfer] is not _PREFETCH:
                continue
            transfer_sid, transfer_pos = sids[transfer], positions[transfer]
            for seq, write in zip(accesses, epoch.writes):
                if kinds[seq] is _KERNEL and not write \
                        and seq > transfer \
                        and clock[seq][transfer_sid] < transfer_pos:
                    report(
                        "HB003",
                        f"{epoch.buffer} read by "
                        f"{trace.labels[seq] or 'a kernel'} before its "
                        f"prefetch is guaranteed complete",
                        transfer, seq)
                    break  # one finding per unsynchronized transfer

        _check_access_pairs(trace, clock, epoch, reported, report)

    if network is not None:
        diagnostics.extend(_check_prefetch_window(trace, network, subject))
    return diagnostics


def _check_access_pairs(trace: ScheduleTrace, clock: List[List[int]],
                        epoch: _Epoch, reported: Set[Tuple[int, int]],
                        report) -> None:
    """HB001: the remaining unordered conflicting access pairs.

    Only accesses on different streams can race, so the accesses are
    bucketed by stream and each is paired only with the later accesses
    of the other buckets, in access order: a single-stream epoch (the
    baseline's network-wide blob) costs one pass, not a pair scan.  A
    later access on another stream was issued later, so it cannot be
    ordered before the earlier one: one clock lookup decides the pair.
    """
    sids, positions = trace.stream_ids, trace.positions
    accesses, writes = epoch.accesses, epoch.writes
    buckets: Dict[int, List[int]] = {}    # stream id -> access indices
    for i, seq in enumerate(accesses):
        bucket = buckets.get(sids[seq])
        if bucket is None:
            buckets[sids[seq]] = [i]
        else:
            bucket.append(i)
    if len(buckets) < 2:
        return
    for i, a in enumerate(accesses):
        a_sid = sids[a]
        others = [bucket[bisect_right(bucket, i):]
                  for sid, bucket in buckets.items() if sid != a_sid]
        later = others[0] if len(others) == 1 else \
            sorted(j for bucket in others for j in bucket)
        write_a = writes[i]
        a_pos = positions[a]
        for j in later:
            write_b = writes[j]
            if not (write_a or write_b):
                continue
            b = accesses[j]
            if (a, b) in reported:
                continue
            if clock[b][a_sid] < a_pos:
                mode_a = "w" if write_a else "r"
                mode_b = "w" if write_b else "r"
                report(
                    "HB001",
                    f"unordered {mode_a}/{mode_b} accesses to "
                    f"{epoch.buffer} on different streams",
                    a, b)


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
    offload_triggers = {target for kind, target
                        in zip(trace.kinds, trace.target_layers)
                        if kind is _OFFLOAD and target >= 0}
    convs = [node.index for node in network if node.kind is LayerKind.CONV]
    prefetched: Set[int] = set()
    for seq, (kind, target, issue, demand) in enumerate(zip(
            trace.kinds, trace.target_layers, trace.layers, trace.demands)):
        if kind is not _PREFETCH:
            continue
        if demand or target < 0 or issue < 0:
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
                    subject=subject, refs=[trace.ref(seq)]))
                break
        prefetched.add(target)
    return diagnostics
