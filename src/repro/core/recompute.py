"""Gradient checkpointing (recomputation) — the offloading alternative.

The paper saves memory by *moving* feature maps across PCIe; the other
classic approach (Chen et al.'s sublinear-memory training, later
combined with offloading by SuperNeurons) saves memory by *dropping*
feature maps after forward propagation and recomputing them from sparse
checkpoints during backward propagation — trading an extra forward pass
for capacity instead of PCIe bandwidth.

:func:`simulate_recompute` runs one training iteration under sqrt(L)
checkpointing on the same pool/latency substrate as the vDNN executor,
so `benchmarks/bench_ext_recompute.py` can compare the two fairly:
memory floor, time overhead, and where each wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from ..alloc.pool import Allocation, PoolAllocator
from ..alloc.stats import UsageTracker
from ..graph.layer import LayerKind
from ..graph.network import Network
from ..hw.config import SystemConfig
from ..kernels.latency import LatencyModel
from ..sim.stream import make_stream_pair
from ..sim.timeline import EventKind
from .algo_config import AlgoConfig
from .executor import IterationResult, _feature_extraction_time
from .liveness import LivenessAnalysis, StorageInfo

_UNBOUNDED = 1 << 50


@dataclass(frozen=True)
class CheckpointPlan:
    """Which storages a recompute run keeps vs drops.

    A pure partition of the droppable feature-extraction storages —
    every droppable owner is a checkpoint or dropped, never both —
    plus the droppable order the segment walk-back follows.  Built by
    :func:`checkpoint_plan`; consumed by :class:`_RecomputeSimulation`
    (segments and walk-back) and by the numpy
    :class:`~repro.numerics.TrainingRuntime` (its drop set, replayed
    owner by owner), and audited statically by
    :func:`repro.analysis.verify_recompute_plan` (SP405).
    """

    checkpoints: FrozenSet[int]
    dropped: FrozenSet[int]
    droppable_order: Tuple[int, ...]


def droppable(network: Network,
              storages: Iterable[StorageInfo]) -> List[StorageInfo]:
    """The storages a checkpoint or joint plan may drop.

    Needed backward, produced by a feature-extraction layer, and not
    the INPUT batch (inputs cannot be recomputed from anything).
    """
    return [s for s in storages
            if s.needed_backward
            and network[s.owner].is_feature_extraction
            and network[s.owner].kind is not LayerKind.INPUT]


def checkpoint_plan(network: Network, liveness: LivenessAnalysis,
                    segment_count: Optional[int] = None,
                    exclude: FrozenSet[int] = frozenset()
                    ) -> CheckpointPlan:
    """sqrt(L) checkpoint selection over the droppable storages.

    Orders the :func:`droppable` storages by owner, less the owners in
    ``exclude`` (the storages an offloading policy moves to the host in
    the offload + recompute hybrid), and keeps every segment boundary:
    ``segment_count`` segments when given and positive, else
    ``isqrt(count)``.  A negative count raises :class:`ValueError`.
    """
    if segment_count is not None and segment_count < 0:
        raise ValueError(
            f"segment count must be non-negative, got {segment_count}")
    order = sorted((s for s in droppable(network, liveness.all_storages())
                    if s.owner not in exclude), key=lambda s: s.owner)
    count = len(order)
    segments = segment_count or max(1, math.isqrt(count))
    stride = max(1, math.ceil(count / segments))
    checkpoints = frozenset(
        s.owner for i, s in enumerate(order) if i % stride == 0)
    return CheckpointPlan(
        checkpoints=checkpoints,
        dropped=frozenset(
            s.owner for s in order if s.owner not in checkpoints),
        droppable_order=tuple(s.owner for s in order),
    )


class _RecomputeSimulation:
    """One iteration under checkpoint/recompute memory management."""

    def __init__(self, network: Network, system: SystemConfig,
                 algos: AlgoConfig, segment_count: Optional[int]):
        self.network = network
        self.system = system
        self.algos = algos
        self.latency = LatencyModel(system.gpu)
        self.liveness = LivenessAnalysis(network)
        self.pool = PoolAllocator(_UNBOUNDED)
        self.compute, _memory, self.timeline = make_stream_pair()
        self.usage = UsageTracker()
        self.device: Dict[int, Allocation] = {}
        self.gradients: Dict[int, Allocation] = {}
        self.recompute_kernel_seconds = 0.0
        self._dead_resident: Set[int] = set()

        plan = checkpoint_plan(network, self.liveness, segment_count)
        self.checkpoints = plan.checkpoints
        self.dropped = plan.dropped
        # Map each storage to the checkpointed segment that regenerates
        # it: the contiguous run of dropped owners after a checkpoint.
        self._droppable_order = plan.droppable_order

    # -- helpers --------------------------------------------------------
    def _sample(self) -> None:
        self.usage.record(self.compute.ready_time, self.pool.live_bytes)

    def _alloc(self, owner: int, nbytes: int, tag: str) -> Allocation:
        allocation = self.pool.alloc(nbytes, tag)
        self._sample()
        return allocation

    def _free(self, allocation: Allocation) -> None:
        self.pool.free(allocation)
        self._sample()

    def _forward_kernel(self, index: int, recompute: bool = False) -> None:
        node = self.network[index]
        timing = self.latency.forward(self.network, node,
                                      self.algos.profile(node))
        label = node.name + ("(re)" if recompute else "")
        self.compute.enqueue(EventKind.FORWARD, label, timing.seconds,
                             nbytes=int(timing.dram_bytes), layer_index=index)
        if recompute:
            self.recompute_kernel_seconds += timing.seconds

    # -- persistent -----------------------------------------------------
    def allocate_persistent(self) -> int:
        persistent = 0
        self.external_bytes = 0
        for node in self.network:
            if not node.weight_bytes:
                continue
            if node.is_feature_extraction:
                self._alloc(node.index, node.weight_bytes, f"W[{node.name}]")
                self._alloc(node.index, node.weight_bytes, f"dW[{node.name}]")
            else:
                self.external_bytes += 2 * node.weight_bytes
            persistent += 2 * node.weight_bytes
        return persistent

    # -- forward --------------------------------------------------------
    def run_forward(self) -> None:
        for index in self.network.forward_schedule():
            node = self.network[index]
            if not node.in_place:
                storage = self.liveness.storage_of(index)
                self.device[storage.owner] = self._alloc(
                    storage.owner, storage.nbytes, f"Y[{node.name}]"
                )
            if node.kind is not LayerKind.INPUT:
                workspace = self._maybe_workspace(node)
                self._forward_kernel(index)
                if workspace is not None:
                    self._free(workspace)
            for storage in self.liveness.input_storages(index):
                if storage.forward_release_at != index:
                    continue
                if storage.owner == 0 and self.dropped:
                    continue  # replays may need the input batch
                if not storage.needed_backward or storage.owner in self.dropped:
                    self._free(self.device.pop(storage.owner))

    def _maybe_workspace(self, node) -> Optional[Allocation]:
        ws_bytes = self.algos.workspace_bytes(node)
        if ws_bytes:
            return self._alloc(node.index, ws_bytes, f"WS[{node.name}]")
        return None

    # -- recompute ------------------------------------------------------
    def _ensure_storage(self, owner: int) -> None:
        """Regenerate a dropped storage (and its segment) on demand."""
        if owner in self.device:
            return
        if owner in self._droppable_order:
            # The segment: walk back to the nearest materialized storage
            # in droppable order, then replay forward kernels to `owner`.
            position = self._droppable_order.index(owner)
            start = position
            while start > 0 and \
                    self._droppable_order[start - 1] not in self.device:
                start -= 1
            to_rebuild = self._droppable_order[start:position + 1]
        else:
            # A dead intermediate the replay flows through (e.g. a BN
            # output feeding only an ADD): regenerate just its chain and
            # remember to discard it after the current backward step.
            to_rebuild = [owner]
            self._dead_resident.add(owner)

        # Inputs feeding the rebuild range but produced outside it must
        # themselves be live (recurse; terminates at checkpoints/input).
        rebuild_set = set(to_rebuild)
        for owner_index in to_rebuild:
            storage = self.liveness.storages[owner_index]
            for member in storage.chain:
                for producer in self.network[member].producers:
                    source = self.network[producer].storage_index
                    if source not in rebuild_set and source not in self.device:
                        self._ensure_storage(source)

        for owner_index in to_rebuild:
            if owner_index in self.device:
                continue  # regenerated by a recursive ensure above
            storage = self.liveness.storages[owner_index]
            self.device[owner_index] = self._alloc(
                owner_index, storage.nbytes,
                f"Y[{self.network[owner_index].name}](re)"
            )
            for member in storage.chain:
                node = self.network[member]
                if node.kind is LayerKind.INPUT:
                    continue
                workspace = self._maybe_workspace(node)
                self._forward_kernel(member, recompute=True)
                if workspace is not None:
                    self._free(workspace)

    # -- backward -------------------------------------------------------
    def run_backward(self) -> None:
        # One pass over the storages (in owner order) buckets every
        # gradient allocation and release by the backward step that
        # performs it.  Each step's free order stays owner order, a
        # buffer (owner, False) before its gradient twin (owner, True).
        grad_allocs_at: Dict[int, List[StorageInfo]] = {}
        releases_at: Dict[int, List[Tuple[int, bool]]] = {}
        for storage in self.liveness.all_storages():
            if storage.needed_backward:
                releases_at.setdefault(
                    storage.backward_release_after, []).append(
                        (storage.owner, False))
            if storage.needs_gradient:
                grad_allocs_at.setdefault(
                    storage.gradient_alloc_at, []).append(storage)
                releases_at.setdefault(
                    storage.gradient_release_after, []).append(
                        (storage.owner, True))

        for index in self.network.backward_schedule():
            node = self.network[index]

            required: List[StorageInfo] = []
            if node.layer.backward_needs_x:
                required.extend(self.liveness.input_storages(index))
            if node.layer.backward_needs_y:
                required.append(self.liveness.storage_of(index))
            for storage in required:
                self._ensure_storage(storage.owner)

            for storage in grad_allocs_at.get(index, ()):
                if storage.owner not in self.gradients:
                    self.gradients[storage.owner] = self._alloc(
                        storage.owner, storage.nbytes, f"dY[{storage.owner}]"
                    )

            workspace = self._maybe_workspace(node)
            timing = self.latency.backward(self.network, node,
                                           self.algos.profile(node))
            self.compute.enqueue(EventKind.BACKWARD, node.name, timing.seconds,
                                 nbytes=int(timing.dram_bytes),
                                 layer_index=index)

            for owner, gradient in releases_at.get(index, ()):
                held = self.gradients if gradient else self.device
                allocation = held.pop(owner, None)
                if allocation is not None:
                    self._free(allocation)
            if workspace is not None:
                self._free(workspace)

            # Regenerated dead intermediates served this step's replay;
            # drop them rather than let them camp in memory.
            for owner in self._dead_resident:
                allocation = self.device.pop(owner, None)
                if allocation is not None:
                    self._free(allocation)
            self._dead_resident.clear()

        for allocation in list(self.device.values()):
            self._free(allocation)
        self.device.clear()
        for allocation in list(self.gradients.values()):
            self._free(allocation)
        self.gradients.clear()


def droppable_count(network: Network,
                    liveness: Optional[LivenessAnalysis] = None) -> int:
    """How many storages a checkpoint plan may drop (Chen et al.'s L)."""
    liveness = liveness or LivenessAnalysis(network)
    return len(droppable(network, liveness.all_storages()))


@dataclass(frozen=True)
class RecomputePlan:
    """A budget-fitted checkpoint plan plus the probes that chose it.

    ``probes`` records every ``(segment_count, fits)`` pair the ladder
    tried, in order — the recompute analogue of vDNN_dyn's profiling
    passes.
    """

    segment_count: int
    plan: CheckpointPlan
    result: IterationResult
    probes: Tuple[Tuple[int, bool], ...]


def plan_recompute(
    network: Network,
    system: SystemConfig,
    algos: AlgoConfig,
    budget_bytes: Optional[int] = None,
    use_cache: Optional[bool] = None,
) -> RecomputePlan:
    """Budgeted segment selection: the most checkpoints that fit.

    Recompute time falls monotonically as checkpoints grow (shorter
    replays), while memory grows — so the cheapest plan under a budget
    is the one with the most segments that still fits.  The ladder
    walks the stride values 1, 2, 3, ... (segment counts descending
    from "checkpoint everything" toward the sqrt(L) default and past it
    to a single segment) and adopts the first fitting count; each probe
    is one content-addressed :func:`simulate_recompute` point.  With no
    budget the GPU capacity is used, so ``plan.result.trainable``
    matches the adoption decision.
    """
    from .cached import cached_recompute

    liveness = LivenessAnalysis(network)
    count = droppable_count(network, liveness)
    budget = system.gpu.memory_bytes if budget_bytes is None \
        else budget_bytes
    probes: List[Tuple[int, bool]] = []
    seen: set = set()
    adopted: Optional[Tuple[int, IterationResult]] = None
    for stride in range(1, max(count, 1) + 1):
        segments = max(1, math.ceil(count / stride))
        if segments in seen:
            continue
        seen.add(segments)
        result = cached_recompute(network, system, algos, segments,
                                  use_cache=use_cache)
        fits = result.max_usage_bytes <= budget
        probes.append((segments, fits))
        if fits:
            adopted = (segments, result)
            break
    if adopted is None:
        # Even the single-checkpoint floor misses the budget; return it
        # anyway so callers can report the (untrainable) memory floor.
        result = cached_recompute(network, system, algos, 1,
                                  use_cache=use_cache)
        if not probes or probes[-1][0] != 1:
            probes.append((1, result.max_usage_bytes <= budget))
        adopted = (1, result)
    segments, result = adopted
    return RecomputePlan(
        segment_count=segments,
        plan=checkpoint_plan(network, liveness, segments),
        result=result,
        probes=tuple(probes),
    )


def simulate_recompute(
    network: Network,
    system: SystemConfig,
    algos: AlgoConfig,
    segment_count: Optional[int] = None,
) -> IterationResult:
    """One training iteration under sqrt(L) gradient checkpointing.

    Returns an :class:`IterationResult` comparable with the vDNN and
    baseline executors (``policy_label`` is ``"recompute"``;
    ``offload_bytes`` is zero — nothing crosses PCIe).
    """
    sim = _RecomputeSimulation(network, system, algos, segment_count)
    persistent = sim.allocate_persistent()
    sim.run_forward()
    sim.run_backward()
    sim.usage.record(sim.timeline.end_time, sim.pool.live_bytes)

    peak = sim.usage.max_bytes
    total_peak = peak + sim.external_bytes
    trainable = total_peak <= system.gpu.memory_bytes
    return IterationResult(
        network_name=network.name,
        policy_label="recompute",
        algo_label=algos.label,
        trainable=trainable,
        failure=None if trainable else (
            f"peak usage {total_peak} bytes exceeds GPU capacity "
            f"{system.gpu.memory_bytes} bytes"
        ),
        timeline=sim.timeline,
        usage=sim.usage,
        managed_max_bytes=peak,
        managed_avg_bytes=sim.usage.average_bytes,
        external_bytes=sim.external_bytes,
        persistent_bytes=persistent,
        total_time=sim.timeline.span,
        feature_extraction_time=_feature_extraction_time(network, sim.timeline),
        offload_bytes=0,
        prefetch_bytes=0,
        pinned_peak_bytes=0,
        compute_stall_seconds=sim.recompute_kernel_seconds,
    )
