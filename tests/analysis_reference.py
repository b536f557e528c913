"""Op-at-a-time reference versions of the trace passes.

These are the happens-before graph, epoch collection, race rules and
memory-safety replay as they were written before the schedule trace
became columnar: each walks :attr:`ScheduleTrace.ops` one
:class:`TraceOp` view at a time, keeps vector clocks as dicts keyed by
stream name, and compares every pair of an epoch's accesses.  The
columnar passes in ``repro.analysis.hb`` / ``repro.analysis.safety``
are held to them diagnostic for diagnostic (rule, message, refs and
order) by ``test_analysis_columnar.py``; ``test_analysis_safety.py``
swaps the replay's ALLOC step for the linear live-set scan.

Also home to the executor traces both test files share.
"""

from __future__ import annotations

import functools
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.diagnostics import Diagnostic
from repro.analysis.safety import _OffsetIndex, _overlaps
from repro.analysis.trace import OpKind, ScheduleTrace, TraceOp
from repro.core.algo_config import AlgoConfig
from repro.core.executor import simulate_vdnn
from repro.core.liveness import LivenessAnalysis
from repro.core.policy import TransferPolicy
from repro.graph.layer import LayerKind
from repro.hw import PAPER_SYSTEM
from repro.zoo import build

ORACLE_NETWORKS = ("alexnet", "googlenet", "resnet18", "lstm")
ORACLE_POLICIES = ("all", "conv", "comp")


@functools.lru_cache(maxsize=None)
def zoo_trace(name, policy):
    """One executor trace at batch 8 under ``vdnn_<policy>``, with the
    network and its liveness."""
    network = build(name, 8)
    transfer = getattr(TransferPolicy, f"vdnn_{policy}")()
    result = simulate_vdnn(network, PAPER_SYSTEM, transfer,
                           AlgoConfig.performance_optimal(network),
                           verify=True)
    return result.schedule_trace, network, LivenessAnalysis(network)


# ----------------------------------------------------------------------
# Happens-before graph and race rules
# ----------------------------------------------------------------------
class HBGraph:
    """Per-op vector clocks as dicts: ``clock[i][stream]``."""

    def __init__(self, trace: ScheduleTrace):
        self.trace = trace
        self.ops = trace.ops
        self.clock: List[Dict[str, int]] = []
        self._by_position: Dict[Tuple[str, int], int] = {
            (op.stream, op.pos): op.seq for op in self.ops
        }
        self._build()

    def _build(self) -> None:
        host: Dict[str, int] = {}      # completions the host has observed
        last_on: Dict[str, int] = {}   # stream -> seq of its latest op
        for op in self.ops:
            clock = dict(host)
            if not op.kind.host_synchronous:
                prev = last_on.get(op.stream)
                if prev is not None:
                    self._merge(clock, self.clock[prev])
                    prev_op = self.ops[prev]
                    clock[op.stream] = max(clock.get(op.stream, -1),
                                           prev_op.pos)
            if op.wait_stream and op.wait_pos >= 0:
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
                self._merge(host, clock)
                host[op.stream] = max(host.get(op.stream, -1), op.pos)

    @staticmethod
    def _merge(into: Dict[str, int], other: Dict[str, int]) -> None:
        for stream, pos in other.items():
            if into.get(stream, -1) < pos:
                into[stream] = pos

    def happens_before(self, a: TraceOp, b: TraceOp) -> bool:
        return self.clock[b.seq].get(a.stream, -1) >= a.pos

    def ordered(self, a: TraceOp, b: TraceOp) -> bool:
        return self.happens_before(a, b) or self.happens_before(b, a)


@dataclass
class Epoch:
    """One buffer lifetime: ALLOC .. FREE with the accesses in between."""

    buffer: str
    alloc: Optional[TraceOp]
    free: Optional[TraceOp] = None
    accesses: List[Tuple[TraceOp, str]] = field(default_factory=list)


def collect_epochs(trace: ScheduleTrace) -> List[Epoch]:
    epochs: List[Epoch] = []
    open_epochs: Dict[str, Epoch] = {}

    def epoch_for(buffer: str) -> Epoch:
        epoch = open_epochs.get(buffer)
        if epoch is None:
            epoch = Epoch(buffer=buffer, alloc=None)
            open_epochs[buffer] = epoch
            epochs.append(epoch)
        return epoch

    for op in trace.ops:
        if op.kind is OpKind.ALLOC:
            epoch = Epoch(buffer=op.buffer, alloc=op)
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


def check_races(trace: ScheduleTrace, hb: Optional[HBGraph] = None,
                network=None, subject: str = "") -> List[Diagnostic]:
    """HB001-HB004, with the every-pair HB001 scan."""
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

    for epoch in collect_epochs(trace):
        if epoch.free is not None:
            for op, _mode in epoch.accesses:
                if op.kind is OpKind.OFFLOAD and \
                        not hb.happens_before(op, epoch.free):
                    report(
                        "HB002",
                        f"{epoch.buffer} released while its offload may "
                        f"still be reading device memory",
                        op, epoch.free)
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
                    break

        # The reference pair loop: every (i, j) pair, i < j.
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
        diagnostics.extend(check_prefetch_window(trace, network, subject))
    return diagnostics


def check_prefetch_window(trace: ScheduleTrace, network,
                          subject: str) -> List[Diagnostic]:
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


# ----------------------------------------------------------------------
# Memory-safety replay
# ----------------------------------------------------------------------
@dataclass
class LiveBlock:
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
class HotRange:
    """Released bytes an unsynchronized offload may still be reading."""

    lo: int
    hi: int
    buffer: str
    transfer: TraceOp


def check_memory_safety(trace: ScheduleTrace, hb=None, liveness=None,
                        subject: str = "") -> List[Diagnostic]:
    """MS101-MS105 over :attr:`ScheduleTrace.ops`, in issue order."""
    hb = hb or HBGraph(trace)
    diagnostics: List[Diagnostic] = []

    def report(rule: str, message: str, *ops: TraceOp) -> None:
        diagnostics.append(Diagnostic.make(
            rule, message, subject=subject, refs=[op.ref() for op in ops]))

    live: Dict[str, LiveBlock] = {}
    hot: List[HotRange] = []
    index = _OffsetIndex()
    issued_kernels: Set[Tuple[int, str]] = set()
    flagged_missing: Set[str] = set()

    for op in trace.ops:
        if op.kind is OpKind.ALLOC:
            _replay_alloc(op, live, hot, index, report)
        elif op.kind is OpKind.FREE:
            _replay_free(op, live, hot, index, hb, liveness, issued_kernels,
                         report)
        elif op.kind is OpKind.SYNC:
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


def _replay_alloc(op: TraceOp, live: Dict[str, LiveBlock],
                  hot: List[HotRange], index: _OffsetIndex,
                  report) -> None:
    if op.buffer in live:
        report(
            "MS104",
            f"{op.buffer} allocated twice without an intervening free",
            live[op.buffer].alloc, op)
        index.usable = False
    block = LiveBlock(buffer=op.buffer, alloc=op, offloads=[])
    if block.has_range:
        lo, hi = block.range
        if not (index.usable and index.claim(lo, hi)):
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


def _replay_free(op: TraceOp, live: Dict[str, LiveBlock],
                 hot: List[HotRange], index: _OffsetIndex, hb,
                 liveness: Optional[LivenessAnalysis],
                 issued_kernels: Set[Tuple[int, str]], report) -> None:
    block = live.pop(op.buffer, None)
    if block is None:
        report(
            "MS102",
            f"{op.buffer} freed while not live (double free)",
            op)
        return
    if block.has_range:
        lo, hi = block.range
        if index.usable:
            index.release(lo)
        for transfer in block.offloads:
            if not hb.happens_before(transfer, op):
                hot.append(HotRange(lo=lo, hi=hi, buffer=op.buffer,
                                    transfer=transfer))
    if liveness is not None and op.phase == "fwd" and op.owner >= 0:
        _check_refcount_gate(op, block, liveness, issued_kernels, report)


def _check_refcount_gate(op: TraceOp, block: LiveBlock,
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
