"""The vDNN manager's schedule as one walk over a compiled plan.

vDNN runs one schedule per iteration (Section III): layer-wise
allocation, offload of a layer's inputs at their last forward consumer
with an end-of-layer sync, the Figure 10 prefetch overlapped with each
backward kernel, and the backward release lists.  :class:`PlanWalk`
decides that schedule, and its order, once:

* forward: allocation, dead releases, drop or offload, the offload sync
  and the post-offload frees;
* backward: the safety net (a demand fetch from the host, or a replay
  of what a drop freed), gradient twins, workspace, the Figure 10
  search and prefetch, the kernel, the prefetch sync, the release lists
  and the discard of replayed intermediates;
* the end sweep.

Training runs both passes; inference
(:func:`repro.core.inference.simulate_inference`) is the forward-only
run, :meth:`PlanWalk.run_forward_only`.

Three domains give the walk its consequences: the timed executor
(:class:`repro.core.executor._VDNNSimulation`: live bytes, streams,
pinned staging, faults, trace, obs), its abstract twin
(:class:`repro.core.interpret._PlanInterpreter`: an interval pool,
happens-before watermarks and the static verifier's findings) and the
numpy training step (:class:`repro.numerics.runtime._TrainingWalk`:
real arrays on a byte-budgeted device heap).  Faults
feed back into the walk: an offload a domain could not stage leaves
its tensor resident, and a prefetch it could not fetch is freed and its
claim returned to the Fig. 10 search.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterator, List, Set

from ..graph.network import Network
from ..hw.config import SystemConfig
from .plan import BackwardStep, CompiledPlan, ForwardStep, StorageRecord
from .policy import TransferPolicy
from .prefetcher import PrefetchState, find_prefetch_layer


class PlanWalk:
    """One iteration of the vDNN schedule; a domain subclass supplies
    what each step does to its state.

    A domain allocates through ``_alloc_weights``, ``_alloc_output``,
    ``_alloc_workspace``, ``_alloc_gradient``, ``_alloc_restore`` and
    ``_alloc_replay``, each returning the block the walk later hands to
    ``_free``.  ``_stage`` moves an offload to the host and ``_fetch``
    brings it back, each returning False when it could not (a domain
    whose fetches can fail also supplies ``_demand_failed``, which ends
    the iteration), and ``_sync`` joins compute with the memory stream.
    A domain where time does not pass runs no kernels, and only the
    abstract domain reports what a walk over a defective plan or an
    unsafe ablation finds; those hooks default to nothing.

    ``drop`` holds the storage owners to drop (a joint point's triggers
    translated by :meth:`~repro.core.plan.CompiledPlan.candidate_owners`,
    or a checkpoint plan's drop set): each is freed with no DMA at its
    last forward reader, and backward replays its producers.
    """

    def __init__(
        self,
        network: Network,
        system: SystemConfig,
        policy: TransferPolicy,
        plan: CompiledPlan,
        bounded_prefetch_window: bool,
        sync_after_offload: bool,
        sync_after_prefetch: bool,
        drop: FrozenSet[int],
    ):
        self.network = network
        self.system = system
        self.policy = policy
        self.plan = plan
        self.wants = plan.offload_indices(policy, network)
        self.bounded_prefetch_window = bounded_prefetch_window
        self.sync_after_offload = sync_after_offload
        self.sync_after_prefetch = sync_after_prefetch
        self.external_bytes = plan.external_bytes
        self.state = PrefetchState.for_network(network, plan.conv_floor)

        # storage owner -> the domain's live device / gradient block
        self.device: Dict[int, object] = {}
        self.gradients: Dict[int, object] = {}
        # storage owner -> wire bytes staged on the host (compressed
        # offloads shrink them; the return trip moves the same bytes)
        self.host: Dict[int, int] = {}
        # storage owners a prefetch or demand fetch brought back
        self.restored: Set[int] = set()
        # trigger layer -> storage records it offloaded
        self.offloaded_at: Dict[int, List[StorageRecord]] = {}
        # Drops: the owners to free, replayed intermediates backward
        # does not need, and the input storages dead releases must keep.
        self.drops = drop
        self._dead_resident: Set[int] = set()
        self._protected = plan.input_owners if drop else frozenset()

        self.offload_bytes = 0
        self.offload_raw_bytes = 0
        self.prefetch_bytes = 0
        # Fig. 10 search outcomes.
        self.prefetch_hits = 0
        self.prefetch_misses = 0

    # -- hooks a domain may leave alone --------------------------------
    #: Run one forward kernel (``replay``: again, in backward), returning
    #: what an offload of its inputs waits for, and one backward kernel;
    #: None in a domain where kernels take no time.
    _forward_kernel = None
    _backward_kernel = None

    def _missing(self, step, owner: int, site: str) -> None:
        """A step's buffer is not where the plan says (``site`` names
        the step: dead, drop, offload, required, Y or dY release)."""

    def _check_dead(self, step: ForwardStep, rec: StorageRecord) -> None:
        """A dead release is about to free ``rec``."""

    def _unsynced_free(self, step: ForwardStep,
                       rec: StorageRecord) -> None:
        """An offloaded ``rec`` is about to be freed with no sync since
        its offload (the end-of-layer sync ablation)."""

    def _unsynced_reads(self, step: BackwardStep) -> None:
        """A backward kernel reads its inputs with the prefetch sync off
        (the §III-C ablation): one a prefetch restored may be in flight."""

    def _unbounded_prefetch(self, target: int, index: int) -> None:
        """The unbounded Fig. 10 search (the window ablation, the only
        one that can skip past a CONV layer) claimed layer ``target``
        at backward step ``index``."""

    def _replaying(self, step: BackwardStep, owner: int) -> None:
        """A replay of ``owner`` begins."""

    def _swept(self, owner: int, is_gradient: bool) -> None:
        """The end sweep freed a block no release list freed."""

    # -- the walk ------------------------------------------------------
    def allocate_persistent(self) -> int:
        """Weights and weight gradients of the feature-extraction layers
        (classifier weights live outside the pool, Section IV-A)."""
        for item in self.plan.persistent:
            self._alloc_weights(item)
        return self.plan.persistent_bytes

    def run_forward(self) -> None:
        for step in self.plan.forward:
            self._forward_layer(step)

    def run_backward(self) -> None:
        for step in self.plan.backward:
            self._backward_layer(step)
        self._end_sweep()

    def run_forward_only(self) -> None:
        """The forward pass with no backward after it (inference,
        Figure 7): nothing replays a drop, so no input storage is kept
        for one, and the end sweep frees what the pass leaves live."""
        self._protected = frozenset()
        self.run_forward()
        self._end_sweep()

    def _forward_layer(self, step: ForwardStep) -> None:  # repro: hot
        index = step.index
        device = self.device

        # Layer-wise allocation: this layer's output (unless in-place)
        # and its transient convolution workspace.
        rec = step.alloc_rec
        if rec is not None:
            device[rec.owner] = self._alloc_output(step, rec)
        if step.is_input:
            return
        workspace = self._alloc_workspace(step, step, "fwd") \
            if step.ws_bytes else None
        issued = self._forward_kernel(step) \
            if self._forward_kernel is not None else None

        # Release any input storage whose last consumer we are and that
        # is dead after forward: no transfer needed (the black-X arrows
        # of Figure 7).
        for rec in step.dead_releases:
            if rec.owner in self._protected:
                continue  # replays may need the input batch
            block = device.pop(rec.owner, None)
            if block is None:
                self._missing(step, rec.owner, "dead")
                continue
            self._check_dead(step, rec)
            self._free(block, index, "fwd")

        # Drop or offload the rest of the last-consumed inputs if the
        # plan says so (the refcount gate of Figure 3).
        if step.offload_candidates and (index in self.wants or self.drops):
            self._offload_inputs(step, issued)

        if workspace is not None:
            self._free(workspace, index, "fwd")

    def _offload_inputs(self, step: ForwardStep, issued) -> None:
        index = step.index
        device = self.device
        candidates = step.offload_candidates
        if self.drops:
            # Drop: discard now, replay later.  The "drop" phase keeps
            # the sanitizer's refcount gate (MS105) out of the way — the
            # gate judges forward frees, and this free is the checkpoint
            # discipline's, covered by SP405 and the remat walk instead.
            for rec in candidates:
                if rec.owner not in self.drops:
                    continue
                block = device.pop(rec.owner, None)
                if block is None:
                    self._missing(step, rec.owner, "drop")
                else:
                    self._free(block, index, "drop")
            candidates = [rec for rec in candidates
                          if rec.owner not in self.drops]
        if index not in self.wants:
            return
        compress = self.policy.compresses(index)
        completed: List[StorageRecord] = []
        for rec in candidates:
            # Wire format: the cDMA engine stages and moves the
            # compressed image; decompression happens on the return
            # trip, so device allocations stay full-size.
            wire = rec.comp_nbytes if compress else rec.nbytes
            if not self._stage(step, rec, wire, compress, issued):
                continue  # not staged: the tensor stays resident
            self.host[rec.owner] = wire
            self.offload_bytes += wire
            self.offload_raw_bytes += rec.nbytes
            completed.append(rec)
        if not completed:
            return
        self.offloaded_at[index] = completed
        self.state.mark_offloaded(index)
        synced = self.sync_after_offload
        if synced:
            self._sync("offload-sync", step.name, index)
        for rec in completed:
            block = device.pop(rec.owner, None)
            if block is None:
                self._missing(step, rec.owner, "offload")
                continue
            if not synced:
                self._unsynced_free(step, rec)
            self._free(block, index, "fwd")

    def _backward_layer(self, step: BackwardStep) -> None:  # repro: hot
        index = step.index
        device = self.device
        gradients = self.gradients

        # Safety net: anything this kernel reads must be on-device —
        # fetched if it is staged on the host, replayed if a drop freed
        # it.
        for rec in step.required:
            if rec.owner not in device:
                if rec.owner in self.host:
                    self._demand(rec, step)
                elif rec.owner in self.drops:
                    self._replay(rec.owner, step)
                else:
                    self._missing(step, rec.owner, "required")

        # Gradient twins born at this backward step.
        for rec in step.grad_allocs:
            if rec.owner not in gradients:
                gradients[rec.owner] = self._alloc_gradient(step, rec)

        workspace = self._alloc_workspace(step, step, "bwd") \
            if step.ws_bytes else None

        # Figure 10: launch (at most) one prefetch overlapped with this
        # backward kernel; with nothing offloaded and pending there is
        # nothing to search.
        target = find_prefetch_layer(
            self.network, self.state, index,
            bounded_window=self.bounded_prefetch_window) \
            if self.state.waiting else None
        launched = False
        if target is None:
            self.prefetch_misses += 1
        else:
            self.prefetch_hits += 1
            for rec in self.offloaded_at.get(target, ()):
                if rec.owner in self.restored:
                    continue
                if self._restore(rec, step, target):
                    launched = True
                else:
                    # Roll back the claim so the layer stays eligible
                    # (Fig. 10 retry or the demand safety net) instead
                    # of its X being silently lost.
                    self.state.unclaim(target)
            if not self.bounded_prefetch_window:
                self._unbounded_prefetch(target, index)

        if self._backward_kernel is not None:
            self._backward_kernel(step, workspace)
        if not self.sync_after_prefetch:
            self._unsynced_reads(step)

        # "Any prefetch operation launched during layer(n)'s backward
        # computation is guaranteed to be ready before layer(n-1)'s."
        if launched and self.sync_after_prefetch:
            self._sync("prefetch-sync", step.name, index)

        # Release whatever this backward step finished with (Figure 8),
        # in the plan's interleaved free order.
        for owner, is_gradient in step.releases:
            block = (gradients if is_gradient else device).pop(owner, None)
            if block is None:
                self._missing(step, owner, "dY" if is_gradient else "Y")
            else:
                self._free(block, index, "bwd")

        if workspace is not None:
            self._free(workspace, index, "bwd")

        if self._dead_resident:
            self._discard_dead_resident(index)

    def _restore(self, rec: StorageRecord, step: BackwardStep,
                 target: int) -> bool:
        """Bring a staged storage back: the Fig. 10 prefetch of layer
        ``target``'s inputs, or (``target`` -1) a blocking demand fetch.
        A fetch that fails is freed again."""
        owner = rec.owner
        self.device[owner] = self._alloc_restore(step, rec, target)
        if not self._fetch(step, rec, target):
            self._free(self.device.pop(owner), step.index, "")
            return False
        self.prefetch_bytes += self.host.pop(owner)
        self.restored.add(owner)
        return True

    def _demand(self, rec: StorageRecord, step: BackwardStep) -> None:
        """Blocking fetch of data the prefetcher failed to stage."""
        if not self._restore(rec, step, -1):
            # The kernel cannot run without it: the iteration fails.
            self._demand_failed(rec, step)
        self._sync("demand-fetch", rec.owner, step.index)

    def _replay(self, owner: int, step: BackwardStep) -> None:
        """Regenerate a freed storage by replaying its producers.

        Depth first, as a recursion would: each producer's storage is
        made resident (fetched if staged, else replayed) before the
        storage that reads it.  The explicit stack bounds a replay chain
        by memory, not by Python's recursion limit."""
        device = self.device
        stack = [(owner, self._replay_sources(owner, step))]
        while stack:
            owner, sources = stack[-1]
            for source in sources:
                if source == owner or source in device:
                    continue
                if source in self.host:
                    self._demand(self.plan.records[source], step)
                else:
                    stack.append(
                        (source, self._replay_sources(source, step)))
                    break
            else:
                stack.pop()
                self._rerun(owner, step)

    def _replay_sources(self, owner: int,
                        step: BackwardStep) -> Iterator[int]:
        """Enter a replay of ``owner``: the storages its chain reads."""
        self._replaying(step, owner)
        info = self.plan.records[owner].info
        if not info.needed_backward:
            # A dead intermediate the replay flows through; discard it
            # again after the current backward step.
            self._dead_resident.add(owner)
        network = self.network
        return (network[producer].storage_index for member in info.chain
                for producer in network[member].producers)

    def _rerun(self, owner: int, step: BackwardStep) -> None:
        """Allocate ``owner`` and rerun its chain's forward kernels."""
        plan = self.plan
        self.device[owner] = self._alloc_replay(step, plan.records[owner])
        for member in plan.records[owner].info.chain:
            fstep = plan.forward_at[member]
            if fstep.is_input:
                continue
            workspace = self._alloc_workspace(fstep, step, "bwd") \
                if fstep.ws_bytes else None
            if self._forward_kernel is not None:
                self._forward_kernel(fstep, True)
            if workspace is not None:
                self._free(workspace, step.index, "bwd")

    def _discard_dead_resident(self, index: int) -> None:
        """Free the replayed intermediates backward does not need."""
        for owner in sorted(self._dead_resident):
            block = self.device.pop(owner, None)
            if block is not None:
                self._free(block, index, "bwd")
        self._dead_resident.clear()

    def _end_sweep(self) -> None:
        """Free anything still live (e.g. the input batch's storage)."""
        for owner, block in self.device.items():
            self._free(block, -1, "end")
            self._swept(owner, False)
        self.device.clear()
        for owner, block in self.gradients.items():
            self._free(block, -1, "end")
            self._swept(owner, True)
        self.gradients.clear()
