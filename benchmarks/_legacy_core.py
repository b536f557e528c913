"""Pre-overhaul simulator core, vendored as the speed-gate reference.

This is a verbatim-in-spirit snapshot of the interpreter-style hot path
that :mod:`repro.core.executor` and :mod:`repro.sim.timeline` shipped
*before* the compiled-plan / slot-array overhaul: one frozen-dataclass
:class:`TimelineEvent` per operation, per-layer policy and liveness
decisions re-derived inside the iteration loop, and O(storages) scans
per backward step.  ``bench_core_speed.py`` times it against the live
implementation on the same machine, so the ≥3x gate measures the
rewrite itself rather than host speed — the same idiom as
``bench_perf_regression.py``'s ``LinearScanPool``.

Trimmed to the perfect-machine path (no fault injection, no sanitizer
trace, no instrumentation): dropping those ``is not None`` branches can
only make this reference *faster*, so the measured speedup is
conservative.  Results must stay bit-identical to the live executor —
the bench asserts digest equality before timing anything.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.alloc.pinned import PinnedHostAllocator
from repro.alloc.pool import Allocation, PoolAllocator
from repro.core.algo_config import AlgoConfig
from repro.core.executor import IterationResult, baseline_allocation_bytes
from repro.core.liveness import LivenessAnalysis, StorageInfo
from repro.core.policy import TransferPolicy
from repro.core.prefetcher import PrefetchState, find_prefetch_layer
from repro.graph.layer import LayerKind
from repro.graph.network import Network
from repro.hw.config import SystemConfig
from repro.kernels.latency import LatencyModel
from repro.sim.timeline import EventKind


# ----------------------------------------------------------------------
# Pre-overhaul Timeline: one frozen dataclass per event.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _LegacyEvent:
    stream: str
    kind: EventKind
    label: str
    start: float
    end: float
    nbytes: int = 0
    layer_index: int = -1

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError(f"event {self.label!r} ends before it starts")

    @property
    def duration(self) -> float:
        return self.end - self.start


class _LegacyTimeline:
    def __init__(self) -> None:
        self._events: List[_LegacyEvent] = []
        self._t0: Optional[float] = None
        self._t1: Optional[float] = None

    def record(self, stream, kind, label, start, end, nbytes=0,
               layer_index=-1) -> _LegacyEvent:
        event = _LegacyEvent(stream, kind, label, start, end, nbytes,
                             layer_index)
        self._events.append(event)
        if self._t0 is None or event.start < self._t0:
            self._t0 = event.start
        if self._t1 is None or event.end > self._t1:
            self._t1 = event.end
        return event

    def seal(self) -> None:
        """IterationResult seals its logs; this log has no sealed form."""

    @property
    def events(self) -> List[_LegacyEvent]:
        return list(self._events)

    @property
    def span(self) -> float:
        if self._t0 is None:
            return 0.0
        return self._t1 - self._t0

    @property
    def end_time(self) -> float:
        return self._t1 if self._t1 is not None else 0.0


class _LegacyStream:
    def __init__(self, name: str, timeline: _LegacyTimeline):
        self.name = name
        self.timeline = timeline
        self.ready_time = 0.0

    def enqueue(self, kind, label, duration, earliest_start=0.0, nbytes=0,
                layer_index=-1) -> _LegacyEvent:
        if duration < 0:
            raise ValueError(f"negative duration for {label!r}")
        start = max(self.ready_time, earliest_start)
        end = start + duration
        event = self.timeline.record(self.name, kind, label, start, end,
                                     nbytes=nbytes, layer_index=layer_index)
        self.ready_time = end
        return event

    def wait_for(self, other: "_LegacyStream") -> float:
        stall = max(0.0, other.ready_time - self.ready_time)
        self.ready_time = max(self.ready_time, other.ready_time)
        return stall


@dataclass
class _LegacySample:
    time: float
    live_bytes: int


class _LegacyUsage:
    """Pre-overhaul UsageTracker: one dataclass per occupancy sample."""

    def __init__(self) -> None:
        self._samples: List[_LegacySample] = []

    def record(self, time: float, live_bytes: int) -> None:
        if live_bytes < 0:
            raise ValueError("live_bytes cannot be negative")
        if self._samples and time < self._samples[-1].time:
            raise ValueError("time went backwards")
        self._samples.append(_LegacySample(time, live_bytes))

    def seal(self) -> None:
        """IterationResult seals its logs; this log has no sealed form."""

    @property
    def max_bytes(self) -> int:
        return max((s.live_bytes for s in self._samples), default=0)

    @property
    def average_bytes(self) -> float:
        if not self._samples:
            return 0.0
        duration = self._samples[-1].time - self._samples[0].time
        if duration <= 0:
            return sum(s.live_bytes for s in self._samples) / len(self._samples)
        weighted = 0.0
        for current, following in zip(self._samples, self._samples[1:]):
            weighted += current.live_bytes * (following.time - current.time)
        return weighted / duration

    def curve(self):
        return [(s.time, s.live_bytes) for s in self._samples]


COMPUTE_STREAM = "stream_compute"
MEMORY_STREAM = "stream_memory"


def _feature_extraction_time(network, timeline) -> float:
    classifier = {n.index for n in network.classifier_nodes}
    events = [e for e in timeline.events if e.layer_index in classifier]
    if not events:
        return timeline.span
    window = max(e.end for e in events) - min(e.start for e in events)
    return max(timeline.span - window, 0.0)


# ----------------------------------------------------------------------
# Pre-overhaul executor: policy/liveness/latency re-derived per layer
# per run, O(storages) release scans per backward step.
# ----------------------------------------------------------------------
class _LegacyVDNNSimulation:
    def __init__(self, network: Network, system: SystemConfig,
                 policy: TransferPolicy, algos: AlgoConfig):
        self.network = network
        self.system = system
        self.policy = policy
        self.algos = algos

        self.latency = LatencyModel(system.gpu)
        self.liveness = LivenessAnalysis(network)
        # Unbounded: trainability is judged on the peak afterwards.
        self.pool = PoolAllocator(1 << 50)
        self.pinned = PinnedHostAllocator(system.host.max_pinned_bytes)
        self.timeline = _LegacyTimeline()
        self.compute = _LegacyStream(COMPUTE_STREAM, self.timeline)
        self.memory = _LegacyStream(MEMORY_STREAM, self.timeline)
        self.usage = _LegacyUsage()
        self.state = PrefetchState.for_network(network)

        self.device: Dict[int, Allocation] = {}
        self.gradients: Dict[int, Allocation] = {}
        self.offloaded_at: Dict[int, List[StorageInfo]] = {}
        self.host_buffers: Dict[int, object] = {}
        self.restored: Dict[int, bool] = {}

        self.stall_seconds = 0.0
        self.offload_bytes = 0
        self.prefetch_bytes = 0
        self.external_bytes = 0
        self.offloaded_layers: List[int] = []

    def _sample(self) -> None:
        self.usage.record(self.compute.ready_time, self.pool.live_bytes)

    def _alloc(self, nbytes: int, tag: str) -> Allocation:
        allocation = self.pool.alloc(nbytes, tag)
        self._sample()
        return allocation

    def _free(self, allocation: Allocation) -> None:
        self.pool.free(allocation)
        self._sample()

    def _stall(self, label: str, layer_index: int) -> None:
        before = self.compute.ready_time
        stall = self.compute.wait_for(self.memory)
        if stall > 0:
            self.stall_seconds += stall
            self.timeline.record(self.compute.name, EventKind.STALL, label,
                                 before, before + stall,
                                 layer_index=layer_index)

    def allocate_persistent(self) -> int:
        persistent = 0
        self.external_bytes = 0
        for node in self.network:
            if not node.weight_bytes:
                continue
            if node.is_feature_extraction:
                self._alloc(node.weight_bytes, f"W[{node.name}]")
                self._alloc(node.weight_bytes, f"dW[{node.name}]")
            else:
                self.external_bytes += 2 * node.weight_bytes
            persistent += 2 * node.weight_bytes
        return persistent

    def run_forward(self) -> None:
        for index in self.network.forward_schedule():
            self._forward_layer(index)

    def _forward_layer(self, index: int) -> None:
        node = self.network[index]
        if not node.in_place:
            storage = self.liveness.storage_of(index)
            self.device[storage.owner] = self._alloc(
                storage.nbytes, f"Y[{node.name}]")
        if node.kind is LayerKind.INPUT:
            return

        workspace: Optional[Allocation] = None
        ws_bytes = self.algos.workspace_bytes(node)
        if ws_bytes:
            workspace = self._alloc(ws_bytes, f"WS[{node.name}]")

        timing = self.latency.forward(self.network, node,
                                      self.algos.profile(node))
        fwd = self.compute.enqueue(
            EventKind.FORWARD, node.name, timing.seconds,
            nbytes=int(timing.dram_bytes), layer_index=index)

        offloads: List[StorageInfo] = []
        for storage in self.liveness.input_storages(index):
            if storage.forward_release_at != index:
                continue
            if storage.needed_backward:
                if self.policy.wants_offload(node):
                    offloads.append(storage)
            else:
                self._free(self.device.pop(storage.owner))

        if offloads:
            completed: List[StorageInfo] = []
            for storage in offloads:
                owner_name = self.network[storage.owner].name
                self.host_buffers[storage.owner] = self.pinned.alloc(
                    storage.nbytes, f"host[{storage.owner}]")
                self.memory.enqueue(
                    EventKind.OFFLOAD, owner_name,
                    self.system.pcie.dma_time(storage.nbytes),
                    earliest_start=fwd.start, nbytes=storage.nbytes,
                    layer_index=index)
                self.offload_bytes += storage.nbytes
                completed.append(storage)
            if completed:
                self.offloaded_at[index] = completed
                self.state.mark_offloaded(index)
                self.offloaded_layers.append(index)
                self._stall(f"offload-sync {node.name}", index)
                for storage in completed:
                    self._free(self.device.pop(storage.owner))

        if workspace is not None:
            self._free(workspace)

    def run_backward(self) -> None:
        for index in self.network.backward_schedule():
            self._backward_layer(index)
        for allocation in list(self.device.values()):
            self._free(allocation)
        self.device.clear()
        for allocation in list(self.gradients.values()):
            self._free(allocation)
        self.gradients.clear()

    def _required_storages(self, index: int) -> List[StorageInfo]:
        node = self.network[index]
        required: Dict[int, StorageInfo] = {}
        if node.layer.backward_needs_x:
            for storage in self.liveness.input_storages(index):
                required[storage.owner] = storage
        if node.layer.backward_needs_y:
            storage = self.liveness.storage_of(index)
            required[storage.owner] = storage
        return list(required.values())

    def _restore_on_demand(self, storage: StorageInfo, index: int) -> None:
        self.device[storage.owner] = self._alloc(
            storage.nbytes, f"X[{storage.owner}](demand)")
        self.memory.enqueue(
            EventKind.PREFETCH,
            self.network[storage.owner].name + "(demand)",
            self.system.pcie.dma_time(storage.nbytes),
            earliest_start=self.compute.ready_time, nbytes=storage.nbytes,
            layer_index=index)
        self.prefetch_bytes += storage.nbytes
        self._stall(f"demand-fetch {storage.owner}", index)
        self.pinned.free(self.host_buffers.pop(storage.owner))
        self.restored[storage.owner] = True

    def _backward_layer(self, index: int) -> None:
        node = self.network[index]

        for storage in self._required_storages(index):
            if storage.owner not in self.device:
                self._restore_on_demand(storage, index)

        for storage in self.liveness.all_storages():
            if storage.needs_gradient and storage.gradient_alloc_at == index \
                    and storage.owner not in self.gradients:
                self.gradients[storage.owner] = self._alloc(
                    storage.nbytes, f"dY[{storage.owner}]")

        workspace: Optional[Allocation] = None
        ws_bytes = self.algos.workspace_bytes(node)
        if ws_bytes:
            workspace = self._alloc(ws_bytes, f"WS[{node.name}]")

        prefetch_target = find_prefetch_layer(self.network, self.state, index)
        launched_prefetch = False
        kernel_start = max(self.compute.ready_time, 0.0)
        if prefetch_target is not None:
            for storage in self.offloaded_at.get(prefetch_target, []):
                if self.restored.get(storage.owner):
                    continue
                self.device[storage.owner] = self._alloc(
                    storage.nbytes, f"X[{storage.owner}](pre)")
                self.memory.enqueue(
                    EventKind.PREFETCH, self.network[storage.owner].name,
                    self.system.pcie.dma_time(storage.nbytes),
                    earliest_start=kernel_start, nbytes=storage.nbytes,
                    layer_index=index)
                self.prefetch_bytes += storage.nbytes
                self.pinned.free(self.host_buffers.pop(storage.owner))
                self.restored[storage.owner] = True
                launched_prefetch = True

        timing = self.latency.backward(self.network, node,
                                       self.algos.profile(node))
        self.compute.enqueue(
            EventKind.BACKWARD, node.name, timing.seconds,
            nbytes=int(timing.dram_bytes), layer_index=index)

        if launched_prefetch:
            self._stall(f"prefetch-sync {node.name}", index)

        for storage in self.liveness.all_storages():
            if storage.needed_backward \
                    and storage.backward_release_after == index:
                allocation = self.device.pop(storage.owner, None)
                if allocation is not None:
                    self._free(allocation)
            if storage.needs_gradient \
                    and storage.gradient_release_after == index:
                allocation = self.gradients.pop(storage.owner, None)
                if allocation is not None:
                    self._free(allocation)

        if workspace is not None:
            self._free(workspace)


def legacy_simulate_vdnn(network: Network, system: SystemConfig,
                         policy: TransferPolicy,
                         algos: AlgoConfig) -> IterationResult:
    """One perfect-machine vDNN iteration on the pre-overhaul core."""
    sim = _LegacyVDNNSimulation(network, system, policy, algos)
    persistent = sim.allocate_persistent()
    sim.run_forward()
    sim.run_backward()
    sim.usage.record(sim.timeline.end_time, sim.pool.live_bytes)
    peak = sim.usage.max_bytes
    total_peak = peak + sim.external_bytes
    failure = None
    if total_peak > system.gpu.memory_bytes:
        failure = (
            f"peak usage {total_peak} bytes exceeds GPU capacity "
            f"{system.gpu.memory_bytes} bytes")
    return IterationResult(
        network_name=network.name,
        policy_label=policy.describe(),
        algo_label=algos.label,
        trainable=failure is None,
        failure=failure,
        timeline=sim.timeline,
        usage=sim.usage,
        managed_max_bytes=peak,
        managed_avg_bytes=sim.usage.average_bytes,
        external_bytes=sim.external_bytes,
        persistent_bytes=persistent,
        total_time=sim.timeline.span,
        feature_extraction_time=_feature_extraction_time(network,
                                                         sim.timeline),
        offload_bytes=sim.offload_bytes,
        prefetch_bytes=sim.prefetch_bytes,
        pinned_peak_bytes=sim.pinned.peak_bytes,
        compute_stall_seconds=sim.stall_seconds,
        offloaded_layers=sim.offloaded_layers,
    )


def legacy_simulate_baseline(network: Network, system: SystemConfig,
                             algos: AlgoConfig) -> IterationResult:
    """One baseline iteration on the pre-overhaul core."""
    latency = LatencyModel(system.gpu)
    timeline = _LegacyTimeline()
    compute = _LegacyStream(COMPUTE_STREAM, timeline)
    breakdown = baseline_allocation_bytes(network, algos)
    total = breakdown["total"]

    usage = _LegacyUsage()
    usage.record(0.0, total)
    for index in network.forward_schedule():
        node = network[index]
        if node.kind is LayerKind.INPUT:
            continue
        timing = latency.forward(network, node, algos.profile(node))
        compute.enqueue(EventKind.FORWARD, node.name, timing.seconds,
                        nbytes=int(timing.dram_bytes), layer_index=index)
    for index in network.backward_schedule():
        node = network[index]
        timing = latency.backward(network, node, algos.profile(node))
        compute.enqueue(EventKind.BACKWARD, node.name, timing.seconds,
                        nbytes=int(timing.dram_bytes), layer_index=index)
    usage.record(timeline.end_time, total)
    trainable = total <= system.gpu.memory_bytes
    return IterationResult(
        network_name=network.name,
        policy_label="base",
        algo_label=algos.label,
        trainable=trainable,
        failure=None if trainable else (
            f"network-wide allocation of {total} bytes exceeds GPU "
            f"capacity of {system.gpu.memory_bytes} bytes"),
        timeline=timeline,
        usage=usage,
        managed_max_bytes=total,
        managed_avg_bytes=float(total),
        external_bytes=0,
        persistent_bytes=breakdown["weights"] * 2,
        total_time=timeline.span,
        feature_extraction_time=_feature_extraction_time(network, timeline),
        offload_bytes=0,
        prefetch_bytes=0,
        pinned_peak_bytes=0,
        compute_stall_seconds=0.0,
    )
