"""Compiled per-layer execution plans for the simulator core.

Every simulated iteration used to re-derive the same facts layer by
layer: liveness lookups, roofline kernel timings, workspace sizes, DMA
durations, offload/release decisions and even the trace buffer names.
None of those depend on anything that changes between runs of the same
``(network, algo-config, hardware)`` point, so this module hoists all
of it into a :class:`CompiledPlan` built once and cached.  Compiling
is linear in layers plus storages: the backward release and
gradient-allocation schedules come from one bucketing pass over the
storages, not from an ``all_storages()`` scan per backward step.

The cache key holds only the hardware fields the plan reads — the
GPU's throughput figures (via :class:`LatencyModel`), the PCIe link
and the compression model — never GPU capacity, so the oracular GPU
and every ``with_gpu_memory`` budget probe share one plan.

Only a layer's algorithm profile decides its steps' workspace, kernel
seconds, DRAM bytes and trace writes, and the baseline's workspace.
So the first plan of a (network, hardware) point is compiled in full
— the *base*: liveness, storage records, persistent blocks, the
offload-set cache and every step — and every other algo-config of that
point is an *overlay* of the newest plan there: the steps of layers
whose profile differs are re-derived, and everything else is shared by
reference.  A vDNN_dyn downgrade probe therefore costs one layer, not
one compile.  Sharing makes the plan family's fields frozen after
construction (lint LINT208); the constructor itself always compiles an
unshared plan.

The plan deliberately holds **no reference to the network** (only
per-storage records, strings and numbers).  That keeps the cache — a
:class:`weakref.WeakKeyDictionary` keyed by the network — leak-free:
when the last outside reference to a network dies, its plans die with
it.  A base compile reads the network's one liveness analysis
(:func:`~repro.core.liveness.liveness_of`), which every other pass over
that network shares; the analysis holds no network either, and the
plan keeps only its :class:`StorageInfo` records.  Policies are
applied as an overlay too: the per-layer offload *candidates*
(refcount gate: last forward reader + needed backward) live in the
plan, and :meth:`CompiledPlan.offload_indices` resolves a
:class:`~repro.core.policy.TransferPolicy` to the set of trigger layers
that actually offload, cached per policy.

:class:`AlgoConfig` is mutable (``downgrade`` swaps algorithms in
place), so plans are keyed by a content signature of its profiles, not
by identity.
"""

from __future__ import annotations

import weakref
from typing import (TYPE_CHECKING, Dict, FrozenSet, List, NamedTuple,
                    Optional, Set, Tuple)

from ..alloc.pool import footprint
from ..graph.layer import LayerKind
from ..graph.network import Network
from ..hw.config import SystemConfig
from ..kernels.latency import LatencyModel
from .algo_config import AlgoConfig
from .liveness import StorageInfo, liveness_of
from .prefetcher import conv_floor

if TYPE_CHECKING:
    from .policy import TransferPolicy


class StorageRecord:
    """One feature-map storage with every derived fact the executor
    needs precomputed: liveness, pool footprint, DMA duration on this
    link (raw and cDMA-compressed), and the tag/buffer strings the
    allocator and schedule trace use."""

    __slots__ = ("info", "owner", "nbytes", "aligned", "name", "y_buf",
                 "g_buf", "g_tag", "host_tag", "pre_tag", "demand_tag",
                 "dma_seconds", "comp_nbytes", "comp_dma_seconds")

    def __init__(self, info: StorageInfo, name: str, dma_seconds: float,
                 comp_nbytes: int, comp_dma_seconds: float):
        self.info = info
        self.owner = info.owner
        self.nbytes = info.nbytes
        self.aligned = footprint(info.nbytes)
        self.name = name
        self.y_buf = f"Y{info.owner}"
        self.g_buf = f"dY{info.owner}"
        self.g_tag = f"dY[{info.owner}]"
        self.host_tag = f"host[{info.owner}]"
        self.pre_tag = f"X[{info.owner}](pre)"
        self.demand_tag = f"X[{info.owner}](demand)"
        self.dma_seconds = dma_seconds
        self.comp_nbytes = comp_nbytes
        self.comp_dma_seconds = comp_dma_seconds


class ForwardStep:
    """Everything one forward layer does, decided ahead of time."""

    __slots__ = ("index", "name", "is_input", "alloc_rec", "y_tag",
                 "y_owner", "ws_bytes", "ws_aligned", "ws_tag", "ws_buf",
                 "seconds", "dram_nbytes", "offload_candidates",
                 "dead_releases", "trace_reads", "trace_writes")

    def __init__(self, index: int, name: str):
        self.index = index
        self.name = name
        self.is_input = False
        self.alloc_rec: Optional[StorageRecord] = None
        self.y_tag = ""
        self.y_owner = -1
        self.ws_bytes = 0
        self.ws_aligned = 0
        self.ws_tag = ""
        self.ws_buf = ""
        self.seconds = 0.0
        self.dram_nbytes = 0
        self.offload_candidates: Tuple[StorageRecord, ...] = ()
        self.dead_releases: Tuple[StorageRecord, ...] = ()
        self.trace_reads: Tuple[str, ...] = ()
        self.trace_writes: Tuple[str, ...] = ()


class BackwardStep:
    """Everything one backward layer does, decided ahead of time.

    ``releases`` is the interleaved (owner, is_gradient) free order of
    the refcount walk: storages in owner order, a storage's buffer
    before its gradient twin.  The compile buckets it in one pass over
    the storages and must keep that order exactly (free order shapes
    the pool's hole structure, hence later offsets)."""

    __slots__ = ("index", "name", "required", "grad_allocs", "ws_bytes",
                 "ws_aligned", "ws_tag", "ws_buf", "seconds", "dram_nbytes",
                 "releases", "y_owner", "has_weight",
                 "grad_write_candidates")

    def __init__(self, index: int, name: str):
        self.index = index
        self.name = name
        self.required: Tuple[StorageRecord, ...] = ()
        self.grad_allocs: Tuple[StorageRecord, ...] = ()
        self.ws_bytes = 0
        self.ws_aligned = 0
        self.ws_tag = ""
        self.ws_buf = ""
        self.seconds = 0.0
        self.dram_nbytes = 0
        self.releases: Tuple[Tuple[int, bool], ...] = ()
        self.y_owner = -1
        self.has_weight = False
        self.grad_write_candidates: Tuple[Tuple[int, str], ...] = ()


class PersistentAlloc:
    """One feature-extraction layer's weight + weight-gradient blocks."""

    __slots__ = ("index", "nbytes", "aligned", "w_tag", "dw_tag", "w_buf",
                 "dw_buf")

    def __init__(self, index: int, nbytes: int, name: str):
        self.index = index
        self.nbytes = nbytes
        self.aligned = footprint(nbytes)
        self.w_tag = f"W[{name}]"
        self.dw_tag = f"dW[{name}]"
        self.w_buf = f"W{index}"
        self.dw_buf = f"dW{index}"


class CompiledPlan:
    """Per-(network, algos, gpu throughput, pcie, compression) plan.

    Policy-independent: offload *candidates* are per forward step, and
    the per-policy trigger set comes from :meth:`offload_indices`.

    A plan is immutable once compiled, so what is proved about it holds
    for its whole life, and it remembers those proofs: ``walk_memo``
    holds every clean abstract walk (:mod:`repro.core.interpret`) and
    ``audit_memo`` the hardware keys its structural and compression
    audits passed on (:mod:`repro.analysis.static_plan`).  Both die with
    the plan; an overlay starts with empty ones, since its workspace
    peaks differ from its base's.
    """

    __slots__ = ("network_name", "forward", "backward", "persistent",
                 "external_bytes", "persistent_bytes", "classifier_indices",
                 "conv_floor", "input_owners", "forward_at", "records",
                 "baseline_breakdown", "_offload_sets", "walk_memo",
                 "audit_memo")

    def __init__(self, network: Network, system: SystemConfig,
                 algos: AlgoConfig):
        latency = LatencyModel(system.gpu)
        liveness = liveness_of(network)
        pcie = system.pcie

        self.network_name = network.name

        # ReLU-sparsity compressibility (cDMA): a storage compresses if
        # any layer writing it — the owner or an in-place ACTV rewriting
        # the same buffer — is a ReLU output.
        relu_owners = frozenset(
            node.storage_index for node in network
            if node.kind is LayerKind.ACTV)
        comp = system.compression
        span = max(1, len(network) - 1)
        records: Dict[int, StorageRecord] = {}
        for info in liveness.all_storages():
            wire = comp.compressed_bytes(
                info.nbytes, info.owner in relu_owners, info.owner / span)
            records[info.owner] = StorageRecord(
                info, network[info.owner].name, pcie.dma_time(info.nbytes),
                wire, comp.engine_latency + pcie.dma_time(wire))
        self.records = records

        # -- persistent weights ----------------------------------------
        persistent: List[PersistentAlloc] = []
        external = 0
        total = 0
        for node in network:
            if not node.weight_bytes:
                continue
            if node.is_feature_extraction:
                persistent.append(PersistentAlloc(
                    node.index, node.weight_bytes, node.name))
            else:
                external += 2 * node.weight_bytes
            total += 2 * node.weight_bytes
        self.persistent = tuple(persistent)
        self.external_bytes = external
        self.persistent_bytes = total
        self.classifier_indices = frozenset(
            n.index for n in network.classifier_nodes)
        # The Fig. 10 search window's CONV floor (see core.prefetcher).
        self.conv_floor = conv_floor(network)

        # -- forward steps ---------------------------------------------
        forward: List[ForwardStep] = []
        input_owners = set()
        for index in network.forward_schedule():
            node = network[index]
            step = ForwardStep(index, node.name)
            own = liveness.storage_of(index)
            step.y_owner = own.owner
            if not node.in_place:
                step.alloc_rec = records[own.owner]
                step.y_tag = f"Y[{node.name}]"
            if node.kind is LayerKind.INPUT:
                step.is_input = True
                input_owners.add(node.storage_index)
                forward.append(step)
                continue
            step.trace_writes = (records[own.owner].y_buf,)
            _derive_algo_fields(step, network, node, algos.profile(node),
                                latency)

            inputs = liveness.input_storages(index)
            step.offload_candidates = tuple(
                records[s.owner] for s in inputs
                if s.forward_release_at == index and s.needed_backward)
            step.dead_releases = tuple(
                records[s.owner] for s in inputs
                if s.forward_release_at == index and not s.needed_backward)

            reads = [records[s.owner].y_buf for s in inputs]
            if node.weight_bytes and node.is_feature_extraction:
                reads.append(f"W{index}")
            step.trace_reads = tuple(reads)
            forward.append(step)
        self.forward = tuple(forward)
        # The input batch's storages (no producer a replay could rerun)
        # and the forward steps by layer, for drop-and-recompute walks.
        self.input_owners = frozenset(input_owners)
        self.forward_at = {step.index: step for step in forward}

        # -- backward steps --------------------------------------------
        # One pass over the storages (in owner order) buckets every
        # gradient allocation and release by the backward step that
        # performs it.  Each step's free order must stay owner order,
        # a buffer (owner, False) before its gradient twin (owner, True).
        grad_alloc_at: Dict[int, List[StorageRecord]] = {}
        releases_at: Dict[int, List[Tuple[int, bool]]] = {}
        for storage in liveness.all_storages():
            if storage.needed_backward:
                releases_at.setdefault(
                    storage.backward_release_after, []).append(
                        (storage.owner, False))
            if storage.needs_gradient:
                grad_alloc_at.setdefault(
                    storage.gradient_alloc_at, []).append(
                        records[storage.owner])
                releases_at.setdefault(
                    storage.gradient_release_after, []).append(
                        (storage.owner, True))

        backward: List[BackwardStep] = []
        for index in network.backward_schedule():
            node = network[index]
            step = BackwardStep(index, node.name)
            own = liveness.storage_of(index)
            step.y_owner = own.owner
            step.has_weight = bool(
                node.weight_bytes and node.is_feature_extraction)

            required: Dict[int, StorageInfo] = {}
            if node.layer.backward_needs_x:
                for storage in liveness.input_storages(index):
                    required[storage.owner] = storage
            if node.layer.backward_needs_y:
                required[own.owner] = own
            step.required = tuple(records[o] for o in required)

            step.grad_allocs = tuple(grad_alloc_at.get(index, ()))

            _derive_algo_fields(step, network, node, algos.profile(node),
                                latency)

            step.releases = tuple(releases_at.get(index, ()))

            step.grad_write_candidates = tuple(
                (s.owner, records[s.owner].g_buf)
                for s in liveness.input_storages(index)
                if s.owner != own.owner)
            backward.append(step)
        self.backward = tuple(backward)

        # -- baseline breakdown (policy-independent) -------------------
        weights = network.total_weight_bytes()
        feature_maps = liveness.total_feature_map_bytes()
        gradient_maps = 2 * liveness.max_gradient_bytes()
        workspace = algos.max_workspace_bytes()
        self.baseline_breakdown = {
            "weights": weights,
            "weight_gradients": weights,
            "feature_maps": feature_maps,
            "gradient_maps": gradient_maps,
            "workspace": workspace,
            "total": weights * 2 + feature_maps + gradient_maps + workspace,
        }

        self._offload_sets: Dict[TransferPolicy, FrozenSet[int]] = {}
        self.walk_memo: Dict[tuple, object] = {}
        self.audit_memo: Set[tuple] = set()

    def _overlay(self, network: Network, system: SystemConfig,
                 algos: AlgoConfig, changed: FrozenSet[int]) -> "CompiledPlan":
        """This plan under ``algos``, where only the layers in ``changed``
        have a different profile: those layers' steps are re-derived,
        everything else (records, persistent blocks, the offload-set
        cache, every other step) is shared by reference.  The walk and
        audit memos start empty."""
        latency = LatencyModel(system.gpu)

        def derive(step):
            if step.index not in changed:
                return step
            twin = _copy(step)
            node = network[step.index]
            _derive_algo_fields(twin, network, node, algos.profile(node),
                                latency)
            return twin

        plan = _copy(self)
        plan.forward = tuple(step if step.is_input else derive(step)
                             for step in self.forward)
        plan.forward_at = {step.index: step for step in plan.forward}
        plan.backward = tuple(map(derive, self.backward))
        workspace = algos.max_workspace_bytes()
        breakdown = dict(self.baseline_breakdown, workspace=workspace)
        breakdown["total"] += workspace - self.baseline_breakdown["workspace"]
        plan.baseline_breakdown = breakdown
        plan.walk_memo = {}
        plan.audit_memo = set()
        return plan

    def offload_indices(self, policy: TransferPolicy,
                        network: Network) -> FrozenSet[int]:
        """Trigger layers whose offload candidates this policy offloads."""
        cached = self._offload_sets.get(policy)
        if cached is None:
            cached = frozenset(
                step.index for step in self.forward
                if step.offload_candidates
                and policy.wants_offload(network[step.index]))
            self._offload_sets[policy] = cached
        return cached

    def candidate_owners(self, triggers: FrozenSet[int]) -> FrozenSet[int]:
        """The storages trigger layers offload or drop: their forward
        steps' offload candidates (each storage has one trigger)."""
        forward_at = self.forward_at
        return frozenset(rec.owner for index in triggers
                         for rec in forward_at[index].offload_candidates)

    def schedule_key(
        self,
        network: Network,
        system: SystemConfig,
        policy: Optional[TransferPolicy],
        *,
        drop: FrozenSet[int] = frozenset(),
        bounded_prefetch_window: bool = True,
        sync_after_offload: bool = True,
        sync_after_prefetch: bool = True,
    ) -> "ScheduleKey":
        """The :class:`ScheduleKey` of one walk of this plan under
        ``policy`` (``None``: the network-wide baseline)."""
        if policy is None:
            return ScheduleKey(self, None, frozenset(), frozenset(),
                               (True, True, True), system)
        triggers = self.offload_indices(policy, network)
        return ScheduleKey(
            self, triggers, frozenset(filter(policy.compresses, triggers)),
            drop, (bounded_prefetch_window, sync_after_offload,
                   sync_after_prefetch), system)

    # -- invariant-relevant views (static verifier) --------------------
    # These flip the per-step schedules into per-storage maps so
    # the static plan verifier can audit each allocation's
    # whole lifecycle in one lookup.  Verification-path only: built on
    # demand, never cached, never touched by the executor's hot loop.

    def release_schedule(self) -> Dict[int, List[Tuple[int, bool]]]:
        """owner -> [(backward step index, is_gradient), ...] in the
        order the backward pass would free them."""
        schedule: Dict[int, List[Tuple[int, bool]]] = {}
        for step in self.backward:
            for owner, is_gradient in step.releases:
                schedule.setdefault(owner, []).append(
                    (step.index, is_gradient))
        return schedule

    def dead_release_sites(self) -> Dict[int, List[int]]:
        """owner -> forward step indices that free it without offload."""
        sites: Dict[int, List[int]] = {}
        for step in self.forward:
            for rec in step.dead_releases:
                sites.setdefault(rec.owner, []).append(step.index)
        return sites

    def offload_candidate_sites(self) -> Dict[int, List[int]]:
        """owner -> forward step indices that may offload it."""
        sites: Dict[int, List[int]] = {}
        for step in self.forward:
            for rec in step.offload_candidates:
                sites.setdefault(rec.owner, []).append(step.index)
        return sites

    def grad_alloc_sites(self) -> Dict[int, List[int]]:
        """owner -> backward step indices that allocate its gradient."""
        sites: Dict[int, List[int]] = {}
        for step in self.backward:
            for rec in step.grad_allocs:
                sites.setdefault(rec.owner, []).append(step.index)
        return sites


class ScheduleKey(NamedTuple):
    """What one iteration walk of a compiled plan executes.

    The vDNN walk (:class:`repro.core.walk.PlanWalk`), timed in the
    executor and abstract in :mod:`repro.core.interpret`, reads a policy
    only through the trigger layers it selects and the subset of those
    that compress, and a joint config only through those and its drop
    set.  So two points with equal keys run the same schedule step for step:
    ``all(m)`` and ``all(p)`` on a network without CONV layers, a joint
    config that drops nothing and the dyn point it equals.  A trace, its
    analysis or an abstract walk made for one serves the other.

    The compressed subset and the drop set are separate fields, since
    they are the two levers the walk treats differently (a cDMA
    transfer versus a discard and replay).  ``plan`` compares by
    identity: one plan per (network, hardware, algo signature).
    """

    plan: CompiledPlan
    #: Trigger layers that offload or drop; ``None`` for the
    #: network-wide baseline, which walks no vDNN schedule at all.
    triggers: Optional[FrozenSet[int]]
    #: The triggers whose offload rides the cDMA engine.
    compressed: FrozenSet[int]
    #: A joint point's drop triggers.
    drop: FrozenSet[int]
    #: (bounded prefetch window, sync after offload, sync after prefetch).
    flags: Tuple[bool, bool, bool]
    #: GPU capacity and the pinned-host budget decide trainability and
    #: aborts; the plan already fixes the rest of the hardware.
    system: SystemConfig


def _derive_algo_fields(step, network: Network, node, profile,
                        latency: LatencyModel) -> None:
    """Fill the fields of a fresh step that the layer's algorithm decides:
    workspace, kernel seconds, DRAM bytes and (forward) the trace writes.
    The constructor and every overlay derive them here."""
    forward = isinstance(step, ForwardStep)
    nbytes = profile.workspace_bytes if profile is not None else 0
    step.ws_bytes = nbytes
    step.ws_aligned = footprint(nbytes) if nbytes else 0
    step.ws_tag = f"WS[{node.name}]" if nbytes else ""
    prefix = "WSf" if forward else "WSb"
    step.ws_buf = f"{prefix}{node.index}" if nbytes else ""
    timing = (latency.forward if forward else latency.backward)(
        network, node, profile)
    step.seconds = timing.seconds
    step.dram_nbytes = int(timing.dram_bytes)
    if forward:
        step.trace_writes = step.trace_writes[:1] + (
            (step.ws_buf,) if nbytes else ())


def _copy(obj):
    """A new slotted plan object sharing every field of ``obj``."""
    twin = object.__new__(type(obj))
    for name in type(obj).__slots__:
        setattr(twin, name, getattr(obj, name))
    return twin


def _algo_signature(algos: AlgoConfig) -> tuple:
    """Content signature of a (mutable) AlgoConfig's profiles."""
    return tuple(sorted(
        (index, profile.algo, profile.workspace_bytes,
         profile.time_multiplier)
        for index, profile in algos.profiles.items()))


#: network -> {(gpu throughput, pcie, compression) -> {algo signature ->
#: CompiledPlan}}.  The first plan of a hardware point is compiled in
#: full (the base); every later one overlays the newest plan of that
#: point, sharing its records and unchanged steps.  Plans hold no
#: network reference, so the base and its overlays die with their
#: network.
_PLANS: "weakref.WeakKeyDictionary[Network, Dict[tuple, Dict[tuple, CompiledPlan]]]" = \
    weakref.WeakKeyDictionary()


def compiled_plan(network: Network, system: SystemConfig,
                  algos: AlgoConfig) -> CompiledPlan:
    """The cached plan for this (network, hardware, algo-config) point.

    Keyed on the GPU fields :class:`LatencyModel` reads, not on the
    whole :class:`~repro.hw.gpu.GPUSpec`: capacity (and the name) never
    reach a plan, so GPUs differing only in memory share one.  A new
    algo signature overlays the newest plan of its hardware point, so a
    downgrade ladder's next probe re-derives one layer."""
    gpu = system.gpu
    hardware = (gpu.peak_flops, gpu.dram_bandwidth, gpu.compute_efficiency,
                gpu.bandwidth_efficiency, system.pcie, system.compression)
    tables = _PLANS.get(network)
    if tables is None:
        tables = _PLANS[network] = {}
    plans = tables.get(hardware)
    if plans is None:
        plans = tables[hardware] = {}
    signature = _algo_signature(algos)
    plan = plans.get(signature)
    if plan is None:
        if plans:
            newest_signature, newest = next(reversed(plans.items()))
            changed = frozenset(item[0] for item in set(
                newest_signature).symmetric_difference(signature))
            plan = newest._overlay(network, system, algos, changed)
        else:
            plan = CompiledPlan(network, system, algos)
        plans[signature] = plan
    return plan
