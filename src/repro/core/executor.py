"""Event-driven execution of one training iteration under a memory manager.

Two entry points:

* :func:`simulate_baseline` — the Torch-style network-wide allocation
  policy of Section IV-A: everything (all feature maps, weights, the two
  reused dY/dX ping-pong buffers, one shared maximum-size workspace) is
  allocated up front, so maximum usage equals average usage, and the
  network is trainable iff that total fits the GPU.
* :func:`simulate_vdnn` — the vDNN manager of Section III: layer-wise
  allocation from a cnmem-style pool, offload of input feature maps on
  ``stream_memory`` overlapped with the owning layer's forward kernel,
  end-of-layer synchronization, release at the refcount-gated last
  consumer, and Figure-10 prefetching overlapped with backward kernels.
  The schedule is :class:`repro.core.walk.PlanWalk`'s, shared with the
  abstract interpreter; this module gives it time.

Both run the same roofline kernel latencies on the same simulated CUDA
streams, so their timelines are directly comparable (Figure 14).  The
simulation counts live bytes with no capacity limit and judges
trainability by comparing the peak against the GPU's physical capacity —
with no thrashing in the model this is exact, and it lets untrainable
configurations still report the memory they would have needed (the
``(*)``-marked bars of Figure 11).  No walk places its blocks: a traced
walk's offsets are replayed from its trace afterwards
(:func:`~repro.analysis.trace.place_blocks`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, List, Optional

from ..alloc.pinned import PinnedHostAllocator, PinnedMemoryError
from ..alloc.pool import Allocation, LiveByteCounter
from ..alloc.stats import UsageTracker
from ..analysis.trace import ScheduleTrace, place_blocks
from ..faults import DMAAbortError, FaultInjector, FaultReport, FaultSpec, make_injector
from ..graph.network import Network
from ..hw.config import SystemConfig
from ..sim.stream import make_stream_pair
from ..sim.timeline import EventKind, Timeline
from .algo_config import AlgoConfig
from .liveness import liveness_of
from .plan import BackwardStep, CompiledPlan, ForwardStep, StorageRecord, \
    compiled_plan
from .policy import TransferPolicy
from .walk import PlanWalk

if TYPE_CHECKING:
    from ..obs import Instrumentation

_FORWARD = EventKind.FORWARD
_BACKWARD = EventKind.BACKWARD
_OFFLOAD = EventKind.OFFLOAD
_PREFETCH = EventKind.PREFETCH


@dataclass
class IterationResult:
    """Everything one simulated training iteration produces.

    Memory is reported at two scopes, mirroring the paper's prototype
    (Section IV-A): the **managed** scope is the vDNN/cnmem pool holding
    feature maps, gradient maps, workspaces and feature-extraction
    weights — what Figure 11's usage bars measure — while classifier
    (FC) weights "remain unchanged and use the same cuBLAS routines used
    in Torch", i.e. live outside the pool (``external_bytes``).  The
    trainability check uses the sum of both scopes.
    """

    network_name: str
    policy_label: str
    algo_label: str
    trainable: bool
    failure: Optional[str]
    timeline: Timeline
    usage: UsageTracker
    managed_max_bytes: int
    managed_avg_bytes: float
    external_bytes: int
    persistent_bytes: int
    total_time: float
    feature_extraction_time: float
    offload_bytes: int
    prefetch_bytes: int
    pinned_peak_bytes: int
    compute_stall_seconds: float
    #: Uncompressed bytes behind ``offload_bytes``: equal for plain
    #: policies, larger when the cDMA engine shrank the wire traffic.
    offload_raw_bytes: int = 0
    offloaded_layers: List[int] = field(default_factory=list)
    #: Per-layer weight bytes an inference pass must load on-device,
    #: keyed by layer index (populated by ``simulate_inference``; empty
    #: for training results).  One accounting path shared with the
    #: serving subsystem's demand-layering executor.
    weight_load_bytes: Dict[int, int] = field(default_factory=dict)
    #: Populated only when the simulation ran with ``verify=True``; the
    #: schedule sanitizer's input (see :mod:`repro.analysis`).  Excluded
    #: from equality: tracing must not change what a result *is*.
    schedule_trace: Optional[ScheduleTrace] = field(
        default=None, compare=False, repr=False)
    #: Populated only when the simulation ran under fault injection; the
    #: audit trail of every injected fault and its resolution.  Excluded
    #: from equality like the trace (a report of what happened, not part
    #: of what the result *is*).
    fault_report: Optional[FaultReport] = field(
        default=None, compare=False, repr=False)

    @property
    def max_usage_bytes(self) -> int:
        """Peak device-memory footprint including unmanaged allocations."""
        return self.managed_max_bytes + self.external_bytes

    @property
    def avg_usage_bytes(self) -> float:
        """Average device-memory footprint including unmanaged allocations."""
        return self.managed_avg_bytes + self.external_bytes

    @property
    def label(self) -> str:
        return f"{self.policy_label}({self.algo_label})"


def _feature_extraction_time(timeline: Timeline, classifier) -> float:
    """Wall time minus the window of the ``classifier`` layers (Section
    V-C's metric)."""
    window = timeline.layer_window(classifier)
    if window is None:
        return timeline.span
    return max(timeline.span - (window[1] - window[0]), 0.0)


# ----------------------------------------------------------------------
# Baseline manager
# ----------------------------------------------------------------------
def baseline_allocation_bytes(
    network: Network, algos: AlgoConfig
) -> Dict[str, int]:
    """Network-wide allocation breakdown of the baseline policy.

    Returns a dict with keys ``weights``, ``weight_gradients``,
    ``feature_maps``, ``gradient_maps``, ``workspace`` and ``total`` —
    the functional breakdown of the paper's Figure 4.
    """
    liveness = liveness_of(network)
    weights = network.total_weight_bytes()
    feature_maps = liveness.total_feature_map_bytes()
    # Two reused dY/dX buffers, each sized to the maximum gradient map
    # (Section IV-A's improved baseline, after [38, 39]).
    gradient_maps = 2 * liveness.max_gradient_bytes()
    workspace = algos.max_workspace_bytes()
    return {
        "weights": weights,
        "weight_gradients": weights,
        "feature_maps": feature_maps,
        "gradient_maps": gradient_maps,
        "workspace": workspace,
        "total": weights * 2 + feature_maps + gradient_maps + workspace,
    }


def simulate_baseline(
    network: Network,
    system: SystemConfig,
    algos: AlgoConfig,
    verify: bool = False,
    obs: Optional[Instrumentation] = None,
) -> IterationResult:
    """One iteration under the network-wide allocation policy."""
    plan = compiled_plan(network, system, algos)
    compute, _memory, timeline = make_stream_pair()
    breakdown = plan.baseline_breakdown
    total = breakdown["total"]

    usage = UsageTracker()
    usage.record(0.0, total)
    if obs is not None:
        obs.pool_sample(total, system.gpu.memory_bytes, 0.0)

    # Baseline has one network-wide reservation and one stream: the
    # trace degenerates to alloc / kernels / free, but running it through
    # the sanitizer still checks the MS1xx lifetime rules.
    trace = ScheduleTrace() if verify else None
    if trace is not None:
        trace.alloc("NET", total, label="network-wide")

    for step in plan.forward:
        if step.is_input:
            continue
        start, end = compute.push(_FORWARD, step.name, step.seconds,
                                  nbytes=step.dram_nbytes,
                                  layer_index=step.index)
        if trace is not None:
            trace.kernel(step.name, compute.name, reads=("NET",),
                         writes=("NET",), layer=step.index, phase="fwd",
                         start=start, end=end)
    forward_end = compute.ready_time
    for step in plan.backward:
        start, end = compute.push(_BACKWARD, step.name, step.seconds,
                                  nbytes=step.dram_nbytes,
                                  layer_index=step.index)
        if trace is not None:
            trace.kernel(step.name, compute.name, reads=("NET",),
                         writes=("NET",), layer=step.index, phase="bwd",
                         start=start, end=end)

    if trace is not None:
        trace.free("NET", compute.name, label="network-wide", phase="end",
                   start=timeline.end_time)
    usage.record(timeline.end_time, total)
    if obs is not None:
        obs.span("forward", "phase", 0.0, forward_end, category="phase",
                 network=network.name, policy="base")
        obs.span("backward", "phase", forward_end, compute.ready_time,
                 category="phase", network=network.name, policy="base")
        obs.stream_busy(timeline.span,
                        ((compute.name, compute.busy_seconds),))
    trainable = total <= system.gpu.memory_bytes
    return IterationResult(
        network_name=network.name,
        policy_label="base",
        algo_label=algos.label,
        trainable=trainable,
        failure=None if trainable else (
            f"network-wide allocation of {total} bytes exceeds GPU "
            f"capacity of {system.gpu.memory_bytes} bytes"
        ),
        timeline=timeline,
        usage=usage,
        managed_max_bytes=total,
        managed_avg_bytes=float(total),
        external_bytes=0,
        persistent_bytes=breakdown["weights"] * 2,
        total_time=timeline.span,
        feature_extraction_time=_feature_extraction_time(
            timeline, plan.classifier_indices),
        offload_bytes=0,
        prefetch_bytes=0,
        pinned_peak_bytes=0,
        compute_stall_seconds=0.0,
        schedule_trace=trace,
    )


# ----------------------------------------------------------------------
# vDNN manager
# ----------------------------------------------------------------------
class _VDNNSimulation(PlanWalk):
    """The timed domain of the vDNN walk (:class:`~repro.core.walk.PlanWalk`).

    The walk decides every step from a
    :class:`~repro.core.plan.CompiledPlan` (kernel timings, DMA
    durations and trace buffer names are precomputed there too); this
    domain gives the steps their consequences: stream clocks, pool
    occupancy, pinned staging, any injected faults, and the trace and
    obs records.  ``label`` names the run.
    """

    def __init__(
        self,
        network: Network,
        system: SystemConfig,
        policy: TransferPolicy,
        algos: AlgoConfig,
        plan: CompiledPlan,
        bounded_prefetch_window: bool = True,
        sync_after_offload: bool = True,
        sync_after_prefetch: bool = True,
        verify: bool = False,
        faults: Optional[FaultInjector] = None,
        obs: Optional[Instrumentation] = None,
        drop: FrozenSet[int] = frozenset(),
        label: str = "",
    ):
        super().__init__(network, system, policy, plan,
                         bounded_prefetch_window, sync_after_offload,
                         sync_after_prefetch, drop)
        self.label = label or policy.describe()
        self.algos = algos
        self.faults = faults
        self.obs = obs
        self.trace: Optional[ScheduleTrace] = ScheduleTrace() if verify else None
        # id of a live block -> its (trace buffer id, storage owner),
        # which the free row repeats.
        self._traced: Dict[int, tuple] = {}
        self.pool = LiveByteCounter()
        pinned_capacity = system.host.max_pinned_bytes
        if faults is not None and faults.spec.pinned_budget_factor != 1.0:
            pinned_capacity = int(
                pinned_capacity * faults.spec.pinned_budget_factor)
        self.pinned = PinnedHostAllocator(pinned_capacity)
        self.compute, self.memory, self.timeline = make_stream_pair()
        self.usage = UsageTracker()
        # storage owner -> (pinned host buffer, DMA seconds of its wire
        # bytes) for every tensor staged on the host
        self.host_buffers: Dict[int, tuple] = {}
        self.stall_seconds = 0.0

    # -- bookkeeping helpers -------------------------------------------
    def _alloc(self, nbytes: int, tag: str, buffer: str, layer: int,
               towner: int = -1, persistent: bool = False) -> Allocation:
        """Counted allocation; ``buffer``/``towner`` name it in the trace.

        ``towner`` is the storage-owner layer recorded for feature/
        gradient buffers (the refcount-gate rule keys on it); workspace
        and weight blocks pass -1 so the gate never applies to them.
        """
        allocation = self.pool.alloc(nbytes, tag)
        # No obs hook here: this runs on every alloc/free, and the
        # counter already tracks its exact high-water mark.  The end-of-run
        # block in _run_iteration reports it via pool_sample + pool_peak.
        self.usage.record(self.compute.ready_time, self.pool.live_bytes)
        if self.trace is not None:
            self.trace.alloc(
                buffer, nbytes, size=allocation.size, label=tag,
                layer=layer, owner=towner, persistent=persistent,
                start=self.compute.ready_time,
            )
            self._traced[id(allocation)] = (buffer, towner)
        return allocation

    def _free(self, allocation: Allocation, layer: int,
              phase: str) -> None:
        if self.trace is not None:
            buffer, towner = self._traced.pop(id(allocation))
            self.trace.free(
                buffer, self.compute.name, size=allocation.size,
                label=allocation.tag,
                layer=layer, owner=towner, phase=phase,
                start=self.compute.ready_time,
            )
        self.pool.free(allocation)
        self.usage.record(self.compute.ready_time, self.pool.live_bytes)

    def _alloc_weights(self, item) -> None:
        self._alloc(item.nbytes, item.w_tag, buffer=item.w_buf,
                    layer=item.index, persistent=True)
        self._alloc(item.nbytes, item.dw_tag, buffer=item.dw_buf,
                    layer=item.index, persistent=True)

    def _alloc_output(self, step: ForwardStep,
                      rec: StorageRecord) -> Allocation:
        return self._alloc(rec.nbytes, step.y_tag, buffer=rec.y_buf,
                           layer=step.index, towner=rec.owner)

    def _alloc_workspace(self, ws, step, phase: str) -> Allocation:
        return self._alloc(ws.ws_bytes, ws.ws_tag, buffer=ws.ws_buf,
                           layer=step.index)

    def _alloc_gradient(self, step: BackwardStep,
                        rec: StorageRecord) -> Allocation:
        return self._alloc(rec.nbytes, rec.g_tag, buffer=rec.g_buf,
                           layer=step.index, towner=rec.owner)

    def _alloc_restore(self, step: BackwardStep, rec: StorageRecord,
                       target: int) -> Allocation:
        return self._alloc(rec.nbytes,
                           rec.pre_tag if target >= 0 else rec.demand_tag,
                           buffer=rec.y_buf, layer=step.index,
                           towner=rec.owner)

    def _alloc_replay(self, step: BackwardStep,
                      rec: StorageRecord) -> Allocation:
        return self._alloc(rec.nbytes, f"Y[{rec.name}](re)",
                           buffer=rec.y_buf, layer=step.index,
                           towner=rec.owner)

    def _sync(self, cause: str, name, layer_index: int) -> None:
        """Synchronize compute behind memory, logging any wasted time."""
        label = f"{cause} {name}"
        before = self.compute.ready_time
        if self.trace is not None:
            # Always traced, even when it costs nothing: a free sync is
            # still the ordering edge the later release depends on.
            self.trace.sync(self.memory.name, label=label,
                            layer=layer_index, start=before)
        stall = self.compute.wait_for(self.memory)
        if stall > 0:
            self.stall_seconds += stall
            self.timeline.append(
                self.compute.name, EventKind.STALL, label,
                before, before + stall, layer_index=layer_index,
            )
            if self.obs is not None:
                self.obs.stall(cause, stall)
        if self.trace is not None:
            self.timeline.append(
                self.compute.name, EventKind.SYNC, label,
                before + max(stall, 0.0), before + max(stall, 0.0),
                layer_index=layer_index,
            )

    # -- DMA with fault injection --------------------------------------
    def _transfer(self, kind, label: str, nbytes: int,
                  earliest_start: float, layer_index: int,
                  fault_kind: str, direction: str = "",
                  seconds: float = 0.0):
        """Enqueue one DMA on ``stream_memory``, retrying under faults.

        Without an injector this is exactly one :meth:`SimStream.push`
        of ``seconds`` — the link's nominal rate, precomputed by the
        plan.  With one, each attempt draws a (possibly
        degraded/jittered) duration and may transiently fail; a failed
        attempt occupies the engine for its full duration (the error
        surfaces at completion), then the retry backs off exponentially
        on the same stream before re-attempting, up to
        ``max_dma_attempts``.

        Returns:
            ``((start, end), attempts)`` — the successful transfer's
            placement, or ``None`` when the retry budget was exhausted.
        """
        direction = direction or fault_kind
        if self.faults is None:
            start, end = self.memory.push(
                kind, label, seconds,
                earliest_start=earliest_start, nbytes=nbytes,
                layer_index=layer_index,
            )
            if self.obs is not None:
                self.obs.pcie_transfer(direction, nbytes, end - start)
            return (start, end), 1
        attempts = 0
        while True:
            attempts += 1
            duration = self.faults.dma_seconds(self.system.pcie, nbytes)
            if not self.faults.dma_fails(fault_kind):
                start, end = self.memory.push(
                    kind, label, duration,
                    earliest_start=earliest_start, nbytes=nbytes,
                    layer_index=layer_index,
                )
                if self.obs is not None:
                    self.obs.pcie_transfer(direction, nbytes, end - start)
                return (start, end), attempts
            self.memory.push(
                EventKind.FAULT, f"{label}!{attempts}", duration,
                earliest_start=earliest_start, nbytes=nbytes,
                layer_index=layer_index,
            )
            if self.obs is not None:
                self.obs.dma_attempt(direction, False)
            if attempts >= self.faults.spec.max_dma_attempts:
                return None, attempts
            backoff = self.faults.spec.backoff_seconds(attempts)
            if backoff > 0:
                self.memory.push(
                    EventKind.RETRY, f"{label}~{attempts}", backoff,
                    layer_index=layer_index,
                )
                if self.obs is not None:
                    self.obs.dma_backoff(backoff)

    # -- walk phases -----------------------------------------------------
    def run_forward(self) -> None:
        self._phase("forward", super().run_forward)

    def run_backward(self) -> None:
        self._phase("backward", super().run_backward)

    def _phase(self, name: str, walk) -> None:
        start = self.compute.ready_time
        try:
            walk()
        finally:
            if self.obs is not None:
                self.obs.span(
                    name, "phase", start,
                    max(self.compute.ready_time, self.memory.ready_time),
                    category="phase", network=self.network.name,
                    policy=self.label)

    def _forward_kernel(self, step: ForwardStep, replay: bool = False):
        """Push one forward kernel; returns its start and trace position
        (the event-wait edge of an offload that reads its inputs)."""
        name = step.name + "(re)" if replay else step.name
        start, end = self.compute.push(
            _FORWARD, name, step.seconds,
            nbytes=step.dram_nbytes, layer_index=step.index,
        )
        if self.trace is not None:
            op = self.trace.kernel(
                name, self.compute.name, reads=step.trace_reads,
                writes=step.trace_writes, layer=step.index,
                phase="bwd" if replay else "fwd", start=start, end=end,
            )
            return start, op.pos
        return start, -1

    def _stage(self, step: ForwardStep, rec: StorageRecord, wire: int,
               compress: bool, issued) -> bool:
        """Pin a host buffer and offload ``rec`` into it, after the
        trigger kernel ``issued`` starts; False if either was refused."""
        wire_seconds = rec.comp_dma_seconds if compress else rec.dma_seconds
        try:
            buffer = self.pinned.alloc(wire, rec.host_tag)
        except PinnedMemoryError as error:
            if self.faults is None:
                raise
            # Pinned-budget pressure: no staging buffer, so this
            # tensor simply stays resident on the device — more
            # memory used, but execution stays correct.
            self.faults.record(
                "pinned-pressure", self.memory.ready_time,
                rec.y_buf, outcome="degraded",
                nbytes=wire,
                detail=f"offload skipped, tensor stays resident "
                       f"({error})",
            )
            return False
        transfer, attempts = self._transfer(
            _OFFLOAD, rec.name, wire,
            earliest_start=issued[0], layer_index=step.index,
            fault_kind="offload", seconds=wire_seconds,
        )
        if transfer is None:
            # Retry budget exhausted: abandon the offload and
            # keep the tensor resident instead.
            self.pinned.free(buffer)
            self.faults.record(
                "dma-offload", self.memory.ready_time,
                rec.y_buf, attempts=attempts,
                outcome="degraded", nbytes=wire,
                detail="offload abandoned, tensor stays resident",
            )
            return False
        if attempts > 1:
            self.faults.record(
                "dma-offload", transfer[1], rec.y_buf,
                attempts=attempts, outcome="recovered",
                nbytes=wire,
                detail="transient DMA failure, retry succeeded",
            )
        if self.trace is not None:
            # The DMA starts no earlier than the trigger kernel,
            # i.e. after everything before it on compute: the
            # event-wait edge that keeps the producer ordered
            # before the transfer that reads its output.
            self.trace.offload(
                rec.y_buf, self.memory.name,
                nbytes=wire,
                label=f"off[{rec.name}]",
                layer=step.index, owner=rec.owner, target_layer=step.index,
                wait_stream=self.compute.name,
                wait_pos=issued[1] - 1,
                start=transfer[0], end=transfer[1],
            )
        self.host_buffers[rec.owner] = buffer, wire_seconds
        if compress and self.obs is not None:
            self.obs.compression(rec.nbytes, wire)
        return True

    def _fetch(self, step: BackwardStep, rec: StorageRecord,
               target: int) -> bool:
        """DMA ``rec`` back from its pinned buffer: a prefetch of layer
        ``target``'s inputs, or (``target`` -1) a demand fetch."""
        demand = target < 0
        wire = self.host[rec.owner]
        buffer, wire_seconds = self.host_buffers[rec.owner]
        if demand and self.obs is not None:
            self.obs.prefetch_event("demand")
        transfer, attempts = self._transfer(
            _PREFETCH, rec.name + "(demand)" if demand else rec.name, wire,
            earliest_start=self.compute.ready_time, layer_index=step.index,
            fault_kind="prefetch", direction="demand" if demand else "",
            seconds=wire_seconds,
        )
        kind = "dma-demand" if demand else "dma-prefetch"
        if transfer is None:
            # The walk frees the block, then fails the iteration (a
            # demand fetch) or returns the claim (a prefetch).
            if not demand and self.obs is not None:
                self.obs.prefetch_event("unclaimed")
            self.faults.record(
                kind, self.memory.ready_time, rec.y_buf, attempts=attempts,
                outcome="fatal" if demand else "deferred", nbytes=wire,
                detail="demand fetch exhausted its retry budget" if demand
                else "prefetch abandoned, claim rolled back; "
                     "will retry or demand-fetch",
            )
            return False
        if attempts > 1:
            self.faults.record(
                kind, transfer[1], rec.y_buf,
                attempts=attempts, outcome="recovered",
                nbytes=wire,
                detail="transient DMA failure, retry succeeded",
            )
        if self.trace is not None:
            self.trace.prefetch(
                rec.y_buf, self.memory.name,
                nbytes=wire,
                label=f"pre[{rec.name}](demand)" if demand
                else f"pre[{rec.name}]",
                layer=step.index, owner=rec.owner, target_layer=target,
                wait_stream=self.compute.name,
                wait_pos=self.trace.position(self.compute.name),
                demand=demand, start=transfer[0], end=transfer[1],
            )
        self.pinned.free(buffer)
        del self.host_buffers[rec.owner]
        return True

    def _demand_failed(self, rec: StorageRecord, step: BackwardStep):
        # A transfer gives up only after its last allowed attempt.
        raise DMAAbortError(
            f"demand fetch of Y{rec.owner} for layer {step.index} "
            f"failed after {self.faults.spec.max_dma_attempts} attempts"
        )

    def _backward_kernel(self, step: BackwardStep,
                         workspace: Optional[Allocation]) -> None:
        start, end = self.compute.push(
            _BACKWARD, step.name, step.seconds,
            nbytes=step.dram_nbytes, layer_index=step.index,
        )
        if self.trace is not None:
            gradients = self.gradients
            reads = [rec.y_buf for rec in step.required]
            if step.y_owner in gradients:
                reads.append(f"dY{step.y_owner}")
            if step.has_weight:
                reads.append(f"W{step.index}")
            writes = [g_buf for owner, g_buf in step.grad_write_candidates
                      if owner in gradients]
            if step.has_weight:
                writes.append(f"dW{step.index}")
            if workspace is not None:
                writes.append(step.ws_buf)
            self.trace.kernel(
                step.name, self.compute.name, reads=reads, writes=writes,
                layer=step.index, phase="bwd", start=start, end=end,
            )


def simulate_vdnn(
    network: Network,
    system: SystemConfig,
    policy: TransferPolicy,
    algos: AlgoConfig,
    bounded_prefetch_window: bool = True,
    sync_after_offload: bool = True,
    sync_after_prefetch: bool = True,
    verify: bool = False,
    faults: Optional[FaultSpec] = None,
    fault_seed: int = 0,
    obs: Optional[Instrumentation] = None,
) -> IterationResult:
    """One training iteration under the vDNN memory manager.

    Args:
        network: the DNN to train.
        system: GPU + host + PCIe models.
        policy: which layers offload their input feature maps.
        algos: per-CONV-layer algorithm (and workspace) choices.
        bounded_prefetch_window: disable for the DESIGN.md ablation of
            Figure 10's CONV-bounded search window.
        sync_after_offload: disable for the end-of-layer-sync ablation
            (release then happens at the same point but compute no
            longer waits — an *unsafe* configuration kept for study).
        sync_after_prefetch: disable for the prefetch-guarantee ablation
            of §III-C ("ready before layer(n-1)'s backward") — the
            backward kernel may then read a still-in-flight prefetch,
            the defect HB003 (and statically SP403) exists to catch.
        verify: record a :class:`~repro.analysis.trace.ScheduleTrace` of
            every alloc/free/kernel/transfer/sync on the result, for the
            schedule sanitizer (``repro verify``).  Debug-only: traced
            runs bypass the result cache.
        faults: inject deterministic faults from this
            :class:`~repro.faults.FaultSpec` (None = the perfect
            machine; faulted runs bypass the result cache).
        fault_seed: RNG seed for the fault stream; same
            ``(spec, seed)`` ⇒ bit-identical run and FaultReport.
        obs: record metrics and spans into this
            :class:`~repro.obs.Instrumentation`.  Observation only —
            the run is bit-identical with or without it (the
            differential suite asserts this across the zoo); like
            traced runs, instrumented runs bypass the result cache.

    Returns:
        The :class:`IterationResult`; ``trainable`` reflects whether the
        peak pool usage fits the physical GPU.
    """
    plan = compiled_plan(network, system, algos)
    injector = make_injector(faults, fault_seed, obs=obs)
    sim = _VDNNSimulation(
        network, system, policy, algos, plan,
        bounded_prefetch_window=bounded_prefetch_window,
        sync_after_offload=sync_after_offload,
        sync_after_prefetch=sync_after_prefetch,
        verify=verify,
        faults=injector,
        obs=obs,
    )
    return _run_iteration(sim)


def _run_iteration(sim: _VDNNSimulation) -> IterationResult:
    """Walk one iteration and assemble its :class:`IterationResult`."""
    network, system, obs = sim.network, sim.system, sim.obs
    failure: Optional[str] = None
    persistent = sim.allocate_persistent()
    try:
        sim.run_forward()
        sim.run_backward()
    except PinnedMemoryError as error:
        # Host DRAM cannot stage this policy's offload traffic; the
        # configuration is untrainable on this node (partial stats kept).
        failure = f"host pinned memory exhausted: {error}"
    except DMAAbortError as error:
        # A demand fetch exhausted its retries: structured failure, not
        # a hang or silent corruption.
        failure = f"DMA transfer permanently failed: {error}"
    if sim.trace is not None:
        place_blocks(sim.trace)
    sim.usage.record(sim.timeline.end_time, sim.pool.live_bytes)
    if obs is not None:
        obs.pool_sample(sim.pool.live_bytes, system.gpu.memory_bytes, 0.0)
        obs.pool_peak(sim.pool.peak_bytes)
        obs.pinned_peak(sim.pinned.peak_bytes)
        obs.prefetch_searches(sim.prefetch_hits, sim.prefetch_misses)
        obs.stream_busy(sim.timeline.span,
                        ((sim.compute.name, sim.compute.busy_seconds),
                         (sim.memory.name, sim.memory.busy_seconds)))
        obs.span("iteration", "phase", 0.0, sim.timeline.end_time,
                 category="phase", network=network.name,
                 policy=sim.label, algo=sim.algos.label)

    peak = sim.usage.max_bytes
    total_peak = peak + sim.external_bytes
    if failure is None and total_peak > system.gpu.memory_bytes:
        failure = (
            f"peak usage {total_peak} bytes exceeds GPU capacity "
            f"{system.gpu.memory_bytes} bytes"
        )
    trainable = failure is None
    return IterationResult(
        network_name=network.name,
        policy_label=sim.label,
        algo_label=sim.algos.label,
        trainable=trainable,
        failure=failure,
        timeline=sim.timeline,
        usage=sim.usage,
        managed_max_bytes=peak,
        managed_avg_bytes=sim.usage.average_bytes,
        external_bytes=sim.external_bytes,
        persistent_bytes=persistent,
        total_time=sim.timeline.span,
        feature_extraction_time=_feature_extraction_time(
            sim.timeline, sim.plan.classifier_indices),
        offload_bytes=sim.offload_bytes,
        prefetch_bytes=sim.prefetch_bytes,
        pinned_peak_bytes=sim.pinned.peak_bytes,
        compute_stall_seconds=sim.stall_seconds,
        offload_raw_bytes=sim.offload_raw_bytes,
        offloaded_layers=list(sim.offloaded_at),
        schedule_trace=sim.trace,
        fault_report=sim.faults.report if sim.faults is not None else None,
    )
