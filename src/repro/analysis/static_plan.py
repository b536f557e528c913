"""Static plan verifier: prove vDNN invariants before anything runs.

The dynamic sanitizer (:mod:`repro.analysis.hb` / ``safety``) certifies
a schedule by *running* it under ``verify=True`` — one full simulation
per point.  PR 7's :class:`~repro.core.plan.CompiledPlan` hoists the
exact facts those proofs need (liveness, release orders, refcount-gated
offload candidates, DMA issue order), so the same conditions can be
proved *statically*: this module walks the plan with an abstract
interpreter — an interval-abstracted pool (live/peak bytes, aligned
like the real :class:`~repro.alloc.pool.PoolAllocator`), a pinned-host
counter, and per-stream happens-before positions (a serial ``mem_pos``
issue counter against a ``synced_through`` watermark) — and either
certifies the SP4xx rules or produces a counterexample trace naming the
exact step.

Rules (catalog in :mod:`repro.analysis.diagnostics`):

* **SP401** — peak bytes ≤ device budget, with the first-violating
  step; warning severity, because an over-budget plan is *untrainable*,
  not unsafe (the dynamic side reports it the same way).
* **SP402** — the Fig. 3 refcount gate: nothing is released before its
  last forward consumer, nothing backward needs is discarded without
  offload, and no offloaded buffer is freed before a sync covers its
  transfer.
* **SP403** — the Fig. 10 / §III-C prefetch discipline: restored
  buffers are synced before backward reads them (error), and prefetch
  targets stay inside the CONV-bounded window (warning, mirroring
  HB004).
* **SP404** — release lists free every allocation exactly once: static
  leak, double free, or a release at the wrong backward step.
* **SP405** — recompute/checkpoint plans, and the drops of a joint
  plan, re-materialize every dropped storage before its consumer.
* **SP406** — serve :class:`~repro.serve.layering.ServicePlan`
  accounting is internally consistent.

One walk serves every vDNN point, plain or joint: a joint point's
drop set is data on it, exactly as on the executor.  It follows
:class:`repro.core.executor._VDNNSimulation` step for step (same
allocation order, same ``find_prefetch_layer`` state machine, same
drop replays, same pinned-exhaustion abort point), so on a clean plan
the statically computed peak equals the simulated ``managed_max_bytes``
*exactly* — the differential tests assert bit-equality, not closeness.
No simulation runs anywhere in this module: the whole 140-point zoo grid
verifies in a few seconds, dominated by plan compilation that
every later simulation reuses (see docs/performance.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..core.algo_config import AlgoConfig
from ..core.dynamic import ProfilingPass, _recording, run_profiling_ladder
from ..core.liveness import LivenessAnalysis
from ..core.plan import CompiledPlan, StorageRecord, compiled_plan
from ..core.policy import TransferPolicy
from ..core.prefetcher import PrefetchState, find_prefetch_layer
from ..core.recompute import CheckpointPlan, checkpoint_plan
from ..graph.layer import LayerKind
from ..graph.network import Network
from ..hw.config import PAPER_SYSTEM, SystemConfig
from .diagnostics import Report, Severity


# ----------------------------------------------------------------------
# Abstract interpretation of one CompiledPlan
# ----------------------------------------------------------------------
@dataclass
class PlanInterpretation:
    """What the abstract walk of one (plan, policy) point computed.

    On a clean plan every field matches the corresponding
    :class:`~repro.core.executor.IterationResult` field bit-for-bit
    (``peak_bytes`` == ``managed_max_bytes`` and so on) — the
    differential suite asserts exactly that.
    """

    subject: str
    budget_bytes: int
    external_bytes: int
    peak_bytes: int = 0
    peak_step: str = ""
    offload_bytes: int = 0
    prefetch_bytes: int = 0
    pinned_peak_bytes: int = 0
    #: Abort reason (pinned-host exhaustion), or None for a full walk.
    aborted: Optional[str] = None
    #: Counterexample for SP401: the first step whose allocation pushed
    #: usage over the device budget (None while the plan fits).
    first_over_budget: Optional[str] = None

    @property
    def max_usage_bytes(self) -> int:
        return self.peak_bytes + self.external_bytes

    @property
    def trainable(self) -> bool:
        return self.aborted is None \
            and self.max_usage_bytes <= self.budget_bytes


class _AbortWalk(Exception):
    """Internal: the walk hit the same hard stop the executor would."""


class _PlanInterpreter:
    """Symbolic forward+backward walk of one compiled plan.

    State tracked: aligned pool live/peak bytes, pinned-host live/peak,
    the owner→footprint device and gradient tables (footprints are
    plan-compiled: ``aligned`` / ``ws_aligned``), the Fig. 10
    :class:`PrefetchState`, and the happens-before abstraction — every
    DMA gets a serial issue position ``mem_pos`` and every sync raises
    the ``synced_through`` watermark; an operation that reads or
    reuses a buffer is safe iff the covering transfer's position is at
    or below the watermark.

    ``drop`` is a joint point's drop set, walked exactly as the
    executor walks it: drop triggers discard their candidates with no
    DMA and no pinned staging, and backward replays producer chains
    abstractly (allocate Y, workspace alloc/free per chain member) for
    the buffers those drops freed — and only for those.
    """

    def __init__(
        self,
        network: Network,
        system: SystemConfig,
        plan: CompiledPlan,
        policy: TransferPolicy,
        *,
        bounded_prefetch_window: bool = True,
        sync_after_offload: bool = True,
        sync_after_prefetch: bool = True,
        report: Optional[Report] = None,
        flagged: FrozenSet[int] = frozenset(),
        subject: str = "",
        drop: FrozenSet[int] = frozenset(),
    ):
        self.network = network
        self.system = system
        self.plan = plan
        self.policy = policy
        self.bounded_prefetch_window = bounded_prefetch_window
        self.sync_after_offload = sync_after_offload
        self.sync_after_prefetch = sync_after_prefetch
        self.report = report if report is not None else Report(subject)
        self.flagged = flagged

        self.wants = plan.offload_indices(policy, network)
        self.budget = system.gpu.memory_bytes
        self.pinned_capacity = system.host.max_pinned_bytes
        self.external = plan.external_bytes

        self.live = 0
        self.peak = 0
        # (template, args) of the peak step, formatted once by run().
        self._peak_label: Tuple[str, tuple] = ("", ())
        self.first_over_budget: Optional[str] = None
        self.device: Dict[int, int] = {}
        self.gradients: Dict[int, int] = {}
        self.pinned_live = 0
        self.pinned_peak = 0
        self.host: Dict[int, int] = {}

        self.mem_pos = 0
        self.synced_through = 0
        self.offload_pos: Dict[int, int] = {}
        self.prefetch_pos: Dict[int, int] = {}
        self.restored: Set[int] = set()
        self.prefetch_restored: Set[int] = set()
        self._sp403_checked: Set[int] = set()
        self._window_prefetched: Set[int] = set()

        self.state = PrefetchState.for_network(network, plan.conv_floor)
        self.offloaded_at: Dict[int, List[StorageRecord]] = {}
        self.offload_bytes = 0
        self.prefetch_bytes = 0

        self.drops = drop
        # Owners the drops freed: the only buffers backward replays.
        self.dropped: Set[int] = set()
        self._dead_resident: Set[int] = set()
        self._protected = plan.input_owners if drop else frozenset()
        self._sp405_seen: Set[int] = set()

    # -- pool abstraction ----------------------------------------------
    def _alloc(self, aligned: int, label: str, *args) -> None:
        """Charge one footprint.  The step is named by
        ``label.format(*args)``, formatted only if it is ever reported
        (the peak step, or the first over-budget step)."""
        live = self.live + aligned
        self.live = live
        if live > self.peak:
            self.peak = live
            self._peak_label = (label, args)
        if self.first_over_budget is None \
                and live + self.external > self.budget:
            self.first_over_budget = (
                f"{label.format(*args)}: managed {live} + external "
                f"{self.external} bytes > GPU capacity {self.budget} bytes")

    def _free(self, aligned: int) -> None:
        self.live -= aligned

    # -- forward pass --------------------------------------------------
    def _forward(self, step) -> None:
        index = step.index
        rec = step.alloc_rec
        if rec is not None:
            self.device[rec.owner] = rec.aligned
            self._alloc(rec.aligned, "fwd {}: alloc Y{}", step.name,
                        rec.owner)
        if step.is_input:
            return
        if step.ws_bytes:
            self._alloc(step.ws_aligned, "fwd {}: workspace", step.name)

        for dead in step.dead_releases:
            if dead.owner not in self._protected:
                self._dead_release(step, dead)

        if step.offload_candidates and index in self.wants:
            self._offload(step)

        if step.ws_bytes:
            self._free(step.ws_aligned)

    def _dead_release(self, step, dead) -> None:
        index = step.index
        aligned = self.device.pop(dead.owner, None)
        if aligned is None:
            if dead.owner not in self.flagged:
                self.report.add(
                    "SP404",
                    f"fwd {step.name}: dead release of Y{dead.owner} "
                    f"targets nothing (buffer not on device)",
                    refs=(f"fwd#{index}",))
            return
        if dead.owner not in self.flagged:
            if dead.info.needed_backward:
                self.report.add(
                    "SP402",
                    f"fwd {step.name}: Y{dead.owner} ({dead.name}) "
                    f"discarded without offload although backward "
                    f"still needs it (Fig. 3 refcount gate)",
                    refs=(f"fwd#{index}",
                          f"first backward use: "
                          f"bwd#{dead.info.first_backward_use}"))
            elif dead.info.forward_release_at != index:
                self.report.add(
                    "SP402",
                    f"fwd {step.name}: Y{dead.owner} ({dead.name}) "
                    f"released at forward step {index} but its last "
                    f"forward consumer is layer "
                    f"{dead.info.forward_release_at} (released while "
                    f"a consumer still needs it)",
                    refs=(f"fwd#{index}",
                          f"last consumer: "
                          f"fwd#{dead.info.forward_release_at}"))
        self._free(aligned)

    def _offload(self, step) -> None:
        index = step.index
        if index in self.drops:
            # Drop: free now, regenerate from producers in backward.
            for rec in step.offload_candidates:
                self.dropped.add(rec.owner)
                aligned = self.device.pop(rec.owner, None)
                if aligned is None:
                    if rec.owner not in self.flagged:
                        self.report.add(
                            "SP404",
                            f"fwd {step.name}: drop of Y{rec.owner} "
                            f"targets nothing (buffer not on device)",
                            refs=(f"fwd#{index}",))
                    continue
                self._free(aligned)
            return
        compress = self.policy.compresses(index)
        completed: List[StorageRecord] = []
        for rec in step.offload_candidates:
            # Mirror the executor's wire format: compressed offloads
            # stage and move comp_nbytes; device-side sizes are
            # untouched (decompression happens on the return DMA).
            wire = rec.comp_nbytes if compress else rec.nbytes
            if self.pinned_live + wire > self.pinned_capacity:
                # The executor raises PinnedMemoryError here and the
                # iteration aborts with partial stats: stop the walk at
                # the identical point.
                raise _AbortWalk(
                    f"host pinned memory exhausted at fwd {step.name}: "
                    f"{self.pinned_live} + {wire} > "
                    f"{self.pinned_capacity} bytes")
            self.pinned_live += wire
            self.pinned_peak = max(self.pinned_peak, self.pinned_live)
            self.host[rec.owner] = wire
            self.mem_pos += 1
            self.offload_pos[rec.owner] = self.mem_pos
            self.offload_bytes += wire
            completed.append(rec)
            if rec.owner not in self.flagged and (
                    not rec.info.needed_backward
                    or rec.info.forward_release_at != index):
                self.report.add(
                    "SP402",
                    f"fwd {step.name}: offload of Y{rec.owner} violates "
                    f"the refcount gate (needed_backward="
                    f"{rec.info.needed_backward}, last forward consumer "
                    f"is layer {rec.info.forward_release_at})",
                    refs=(f"fwd#{index}", f"mem op #{self.mem_pos}"))
        if not completed:
            return
        self.offloaded_at[index] = completed
        self.state.mark_offloaded(index)
        if self.sync_after_offload:
            self.synced_through = self.mem_pos
        for rec in completed:
            aligned = self.device.pop(rec.owner, None)
            if aligned is None:
                if rec.owner not in self.flagged:
                    self.report.add(
                        "SP404",
                        f"fwd {step.name}: post-offload release of "
                        f"Y{rec.owner} targets nothing",
                        refs=(f"fwd#{index}",))
                continue
            if rec.owner not in self.flagged \
                    and self.offload_pos[rec.owner] > self.synced_through:
                self.report.add(
                    "SP402",
                    f"fwd {step.name}: Y{rec.owner} freed while its "
                    f"offload (mem op #{self.offload_pos[rec.owner]}) "
                    f"may still be reading it — no sync since mem op "
                    f"#{self.synced_through} (missing end-of-layer "
                    f"sync, §III-B)",
                    refs=(f"fwd#{index}",
                          f"offload mem op #{self.offload_pos[rec.owner]}",
                          f"synced through #{self.synced_through}"))
            self._free(aligned)

    # -- backward pass -------------------------------------------------
    def _backward(self, step) -> None:
        index = step.index

        for rec in step.required:
            if rec.owner in self.device:
                continue
            if rec.owner in self.host:
                self._demand_restore(step, rec)
            elif rec.owner in self.dropped:
                self._remat(rec.owner, step)
            elif rec.owner not in self.flagged:
                self.report.add(
                    "SP404",
                    f"bwd {step.name}: kernel needs Y{rec.owner} but it "
                    f"is neither on device nor staged in host memory — "
                    f"a release list freed it too early "
                    f"(use-after-free)",
                    refs=(f"bwd#{index}",))

        for rec in step.grad_allocs:
            if rec.owner not in self.gradients:
                self.gradients[rec.owner] = rec.aligned
                self._alloc(rec.aligned, "bwd {}: alloc dY{}", step.name,
                            rec.owner)

        if step.ws_bytes:
            self._alloc(step.ws_aligned, "bwd {}: workspace", step.name)

        target = find_prefetch_layer(
            self.network, self.state, index,
            bounded_window=self.bounded_prefetch_window)
        launched = False
        if target is not None:
            for rec in self.offloaded_at.get(target, []):
                if rec.owner in self.restored:
                    continue
                self.device[rec.owner] = rec.aligned
                self._alloc(rec.aligned, "bwd {}: prefetch Y{}", step.name,
                            rec.owner)
                self.mem_pos += 1
                self.prefetch_pos[rec.owner] = self.mem_pos
                wire = self.host.pop(rec.owner)
                self.prefetch_bytes += wire
                self.pinned_live -= wire
                self.restored.add(rec.owner)
                self.prefetch_restored.add(rec.owner)
                launched = True
            self._check_window(target, index)

        # The kernel reads its required buffers here: any of them that
        # arrived by an *asynchronous* prefetch must be covered by a
        # sync, or the read races the DMA (the static twin of HB003).
        for rec in step.required:
            if rec.owner not in self.prefetch_restored \
                    or rec.owner in self._sp403_checked:
                continue
            self._sp403_checked.add(rec.owner)
            pos = self.prefetch_pos[rec.owner]
            if pos > self.synced_through and rec.owner not in self.flagged:
                self.report.add(
                    "SP403",
                    f"bwd {step.name}: kernel reads Y{rec.owner} "
                    f"restored by prefetch (mem op #{pos}) with no sync "
                    f"since mem op #{self.synced_through} — the §III-C "
                    f"guarantee (prefetch ready before the next "
                    f"backward layer) does not hold",
                    refs=(f"bwd#{index}", f"prefetch mem op #{pos}",
                          f"synced through #{self.synced_through}"))

        if launched and self.sync_after_prefetch:
            self.synced_through = self.mem_pos

        for owner, is_gradient in step.releases:
            table = self.gradients if is_gradient else self.device
            aligned = table.pop(owner, None)
            if aligned is None:
                if owner not in self.flagged:
                    kind = "dY" if is_gradient else "Y"
                    self.report.add(
                        "SP404",
                        f"bwd {step.name}: release of {kind}{owner} "
                        f"targets nothing (already freed, or never "
                        f"allocated)",
                        refs=(f"bwd#{index}",))
                continue
            self._free(aligned)

        if step.ws_bytes:
            self._free(step.ws_aligned)

        if self._dead_resident:
            for owner in sorted(self._dead_resident):
                aligned = self.device.pop(owner, None)
                if aligned is not None:
                    self._free(aligned)
            self._dead_resident.clear()

    def _demand_restore(self, step, rec) -> None:
        # Demand fetch: blocking, so it synchronizes everything
        # issued so far — it can never race (emits nothing).
        self.device[rec.owner] = rec.aligned
        self._alloc(rec.aligned, "bwd {}: demand restore Y{}", step.name,
                    rec.owner)
        self.mem_pos += 1
        wire = self.host.pop(rec.owner)
        self.prefetch_bytes += wire
        self.synced_through = self.mem_pos
        self.pinned_live -= wire
        self.restored.add(rec.owner)

    def _ensure(self, owner: int, step) -> None:
        """Make a replay's input resident: from the host, or replayed."""
        if owner in self.device:
            return
        if owner in self.host:
            self._demand_restore(step, self.plan.records[owner])
            return
        self._remat(owner, step)

    def _remat(self, owner: int, step) -> None:
        """Regenerate a freed storage by replaying its producers."""
        # Inputs cannot be recomputed from anything: the replay would
        # allocate Y and run zero kernels — garbage data.
        if owner in self.plan.input_owners and owner not in self.flagged \
                and owner not in self._sp405_seen:
            self._sp405_seen.add(owner)
            self.report.add(
                "SP405",
                f"bwd {step.name}: re-materialization of Y{owner} "
                f"bottoms out at the freed INPUT batch — inputs "
                f"cannot be recomputed",
                refs=(f"bwd#{step.index}",))
        rec = self.plan.records[owner]
        info = rec.info
        if not info.needed_backward:
            self._dead_resident.add(owner)
        for member in info.chain:
            for producer in self.network[member].producers:
                source = self.network[producer].storage_index
                if source != owner and source not in self.device:
                    self._ensure(source, step)
        self.device[owner] = rec.aligned
        self._alloc(rec.aligned, "bwd {}: remat Y{} ({})", step.name, owner,
                    rec.name)
        for member in info.chain:
            fstep = self.plan.forward_at[member]
            if fstep.is_input:
                continue
            if fstep.ws_bytes:
                # alloc → replay kernel → free: same peak as the
                # executor's transient replay workspace.
                self._alloc(fstep.ws_aligned,
                            "bwd {}: remat workspace {}(re)", step.name,
                            fstep.name)
                self._free(fstep.ws_aligned)

    def _check_window(self, target: int, issue: int) -> None:
        """SP403 warning: the Fig. 10 CONV-bounded window (HB004 twin).

        Walks the CONV ids strictly between ``target`` and ``issue``
        down the compiled floor and reports the lowest violating one;
        a bounded search leaves none in range, so this is O(1) there.
        """
        floor = self.plan.conv_floor
        lowest = -1
        between = floor[issue]
        while between > target:
            if between not in self.offloaded_at \
                    or between in self._window_prefetched:
                lowest = between
            between = floor[between]
        if lowest >= 0:
            self.report.add(
                "SP403",
                f"prefetch of layer {target}'s X during backward of "
                f"layer {issue} skips past CONV layer {lowest} "
                f"({self.network[lowest].name}): outside the "
                f"Fig. 10 search window",
                refs=(f"bwd#{issue}", f"target fwd#{target}"),
                severity=Severity.WARNING)
        self._window_prefetched.add(target)

    # -- end of iteration ----------------------------------------------
    def _finish(self) -> None:
        """The executor's end sweep, plus the static leak check."""
        # The protected input survives forward by design when anything
        # drops; free it silently so the leak sweep stays meaningful.
        for owner in self._protected:
            aligned = self.device.pop(owner, None)
            if aligned is not None:
                self._free(aligned)
        for owner, aligned in list(self.device.items()):
            self._free(aligned)
            rec = self.plan.records.get(owner)
            if rec is None or owner in self.flagged:
                continue
            info = rec.info
            has_consumers = info.forward_release_at != info.chain[-1]
            if info.needed_backward or has_consumers:
                self.report.add(
                    "SP404",
                    f"end sweep: Y{owner} ({rec.name}) still live after "
                    f"backward — no release list ever freed it "
                    f"(static leak)",
                    refs=("end-sweep",))
        self.device.clear()
        for owner, aligned in list(self.gradients.items()):
            self._free(aligned)
            if owner not in self.flagged:
                self.report.add(
                    "SP404",
                    f"end sweep: dY{owner} still live after backward — "
                    f"no release list ever freed it (static leak)",
                    refs=("end-sweep",))
        self.gradients.clear()

    def run(self) -> PlanInterpretation:
        result = PlanInterpretation(
            subject=self.report.subject,
            budget_bytes=self.budget,
            external_bytes=self.external,
        )
        try:
            for item in self.plan.persistent:
                self._alloc(item.aligned, "persistent W[{}]", item.index)
                self._alloc(item.aligned, "persistent dW[{}]", item.index)
            for step in self.plan.forward:
                self._forward(step)
            for step in self.plan.backward:
                self._backward(step)
            self._finish()
        except _AbortWalk as abort:
            result.aborted = str(abort)
        result.peak_bytes = self.peak
        label, args = self._peak_label
        result.peak_step = label.format(*args)
        result.offload_bytes = self.offload_bytes
        result.prefetch_bytes = self.prefetch_bytes
        result.pinned_peak_bytes = self.pinned_peak
        result.first_over_budget = self.first_over_budget
        return result


def interpret_plan(
    network: Network,
    system: SystemConfig,
    plan: CompiledPlan,
    policy: TransferPolicy,
    *,
    bounded_prefetch_window: bool = True,
    sync_after_offload: bool = True,
    sync_after_prefetch: bool = True,
    report: Optional[Report] = None,
    flagged: FrozenSet[int] = frozenset(),
    subject: str = "",
) -> PlanInterpretation:
    """Abstractly execute one (plan, policy) point; no simulation runs.

    Diagnostics (SP402/SP403/SP404 walk findings) land in ``report``
    when one is given; ``flagged`` owners — already reported by
    :func:`audit_plan` — are skipped so one defect never reports twice.
    """
    return _PlanInterpreter(
        network, system, plan, policy,
        bounded_prefetch_window=bounded_prefetch_window,
        sync_after_offload=sync_after_offload,
        sync_after_prefetch=sync_after_prefetch,
        report=report, flagged=flagged, subject=subject,
    ).run()


def interpret_joint_plan(
    network: Network,
    system: SystemConfig,
    plan: CompiledPlan,
    config,
    *,
    report: Optional[Report] = None,
    flagged: FrozenSet[int] = frozenset(),
    subject: str = "",
) -> PlanInterpretation:
    """Abstractly execute one (plan, joint config) point: the
    :func:`interpret_plan` walk with the config's drop set."""
    return _PlanInterpreter(
        network, system, plan, config.policy(),
        report=report, flagged=flagged, subject=subject, drop=config.drop,
    ).run()


# ----------------------------------------------------------------------
# Structural audit (SP402/SP404): plan lifecycle vs liveness ground truth
# ----------------------------------------------------------------------
def audit_plan(network: Network, plan: CompiledPlan, report: Report, *,
               liveness: Optional[LivenessAnalysis] = None) -> Set[int]:
    """Audit every storage's whole lifecycle against a fresh liveness.

    Position-independent checks: each allocation must be freed exactly
    once, at the step liveness dictates, by the mechanism the refcount
    gate allows.  Returns the set of flagged owners so the walk can
    skip its own (now redundant) findings for them.

    ``liveness`` is the ground truth; a caller auditing many plans of
    one network (a static sweep row) builds it once and passes it in.
    It must be derived from ``network`` independently of the plan.
    """
    if liveness is None:
        liveness = LivenessAnalysis(network)
    releases = plan.release_schedule()
    dead_sites = plan.dead_release_sites()
    offload_sites = plan.offload_candidate_sites()
    grad_sites = plan.grad_alloc_sites()
    flagged: Set[int] = set()

    for info in liveness.all_storages():
        owner = info.owner
        name = network[owner].name
        has_consumers = info.forward_release_at != info.chain[-1]
        feature = [idx for idx, g in releases.get(owner, ()) if not g]
        grads = [idx for idx, g in releases.get(owner, ()) if g]
        dead = dead_sites.get(owner, [])
        offl = offload_sites.get(owner, [])

        if info.needed_backward:
            if dead:
                flagged.add(owner)
                report.add(
                    "SP402",
                    f"Y{owner} ({name}) appears in dead-release lists at "
                    f"forward steps {dead} although backward still needs "
                    f"it (Fig. 3 refcount gate)")
            expected = [info.forward_release_at] if has_consumers else []
            if offl != expected:
                flagged.add(owner)
                report.add(
                    "SP402",
                    f"Y{owner} ({name}) offload candidacy at forward "
                    f"steps {offl} disagrees with the refcount gate "
                    f"(expected {expected})")
            if not feature:
                flagged.add(owner)
                report.add(
                    "SP404",
                    f"Y{owner} ({name}) is never freed by any backward "
                    f"release list (static leak)")
            elif len(feature) > 1:
                flagged.add(owner)
                report.add(
                    "SP404",
                    f"Y{owner} ({name}) freed {len(feature)} times by "
                    f"backward release lists (double free) at steps "
                    f"{feature}")
            elif feature[0] != info.backward_release_after:
                flagged.add(owner)
                kind = ("use-after-free: freed before its last backward "
                        "consumer runs"
                        if feature[0] > info.backward_release_after
                        else "held past its last backward consumer")
                report.add(
                    "SP404",
                    f"Y{owner} ({name}) released after backward of layer "
                    f"{feature[0]}, but its last backward consumer is "
                    f"layer {info.backward_release_after} ({kind})")
        else:
            if feature:
                flagged.add(owner)
                report.add(
                    "SP404",
                    f"Y{owner} ({name}) appears in backward release "
                    f"lists at steps {feature} although backward never "
                    f"reads it")
            if offl:
                flagged.add(owner)
                report.add(
                    "SP402",
                    f"Y{owner} ({name}) is an offload candidate at "
                    f"forward steps {offl} although backward never "
                    f"reads it (nothing to restore for)")
            if has_consumers:
                if not dead:
                    flagged.add(owner)
                    report.add(
                        "SP404",
                        f"Y{owner} ({name}) is dead after forward but no "
                        f"dead-release list frees it (static leak)")
                elif len(dead) > 1:
                    flagged.add(owner)
                    report.add(
                        "SP404",
                        f"Y{owner} ({name}) freed {len(dead)} times by "
                        f"dead-release lists (double free) at steps "
                        f"{dead}")
            elif dead:
                flagged.add(owner)
                report.add(
                    "SP404",
                    f"Y{owner} ({name}) is a terminal storage (freed by "
                    f"the end sweep) but a dead-release list at steps "
                    f"{dead} frees it too (double free)")

        if info.needs_gradient:
            g_allocs = grad_sites.get(owner, [])
            if g_allocs != [info.gradient_alloc_at]:
                flagged.add(owner)
                report.add(
                    "SP404",
                    f"dY{owner} ({name}) allocation sites {g_allocs} "
                    f"disagree with liveness (first gradient writer is "
                    f"layer {info.gradient_alloc_at})")
            if grads != [info.gradient_release_after]:
                flagged.add(owner)
                report.add(
                    "SP404",
                    f"dY{owner} ({name}) release sites {grads} disagree "
                    f"with liveness (freed after the owner's backward, "
                    f"layer {info.gradient_release_after})")
        elif grads or grad_sites.get(owner):
            flagged.add(owner)
            report.add(
                "SP404",
                f"dY{owner} ({name}) is allocated/released although no "
                f"backward step writes a gradient for it")
    return flagged


# ----------------------------------------------------------------------
# SP407: compression-model consistency
# ----------------------------------------------------------------------
def audit_compression(network: Network, system: SystemConfig,
                      plan: CompiledPlan, report: Report) -> None:
    """Re-derive every record's wire format from the compression model.

    A plan whose ``comp_nbytes`` disagrees with the model (or escapes
    ``(0, nbytes]``) would make the static walk and the simulation
    account different PCIe traffic and pinned pressure for compressed
    policies — the exact drift the bit-equality differential tests
    exist to catch, reported here before anything runs.
    """
    comp = system.compression
    relu_owners = frozenset(
        node.storage_index for node in network
        if node.kind is LayerKind.ACTV)
    span = max(1, len(network) - 1)
    for owner in sorted(plan.records):
        rec = plan.records[owner]
        if rec.nbytes and not 0 < rec.comp_nbytes <= rec.nbytes:
            report.add(
                "SP407",
                f"Y{owner} ({rec.name}) wire size {rec.comp_nbytes} "
                f"escapes (0, {rec.nbytes}] — a compressed transfer must "
                f"move at least one and at most nbytes bytes")
            continue
        expected = comp.compressed_bytes(
            rec.nbytes, owner in relu_owners, owner / span)
        if rec.comp_nbytes != expected:  # repro: allow(LINT204)
            report.add(
                "SP407",
                f"Y{owner} ({rec.name}) wire size {rec.comp_nbytes} "
                f"disagrees with the compression model "
                f"(expected {expected} bytes)")
            continue
        expected_seconds = comp.engine_latency \
            + system.pcie.dma_time(rec.comp_nbytes)
        if rec.comp_dma_seconds != expected_seconds:  # repro: allow(LINT204)
            report.add(
                "SP407",
                f"Y{owner} ({rec.name}) compressed DMA duration "
                f"{rec.comp_dma_seconds} disagrees with engine latency "
                f"+ link time ({expected_seconds})")


# ----------------------------------------------------------------------
# Entry points for training plans
# ----------------------------------------------------------------------
def _ledger(network: Network, system: SystemConfig, plan: CompiledPlan,
            report: Report, liveness: Optional[LivenessAnalysis],
            walk) -> Report:
    """The structural audit, SP407, one abstract walk and the SP401
    tail; ``walk(flagged)`` interprets the plan into ``report``."""
    flagged = frozenset(audit_plan(network, plan, report,
                                   liveness=liveness))
    audit_compression(network, system, plan, report)
    interp = walk(flagged)
    if interp.aborted is not None:
        report.add("SP401",
                   f"plan aborts before completing: {interp.aborted}",
                   refs=("pinned-host budget",))
    elif interp.first_over_budget is not None:
        report.add("SP401",
                   f"statically computed peak {interp.max_usage_bytes} "
                   f"bytes exceeds GPU capacity {interp.budget_bytes} "
                   f"bytes; first over-budget allocation: "
                   f"{interp.first_over_budget}")
    return report


def verify_compiled_plan(
    network: Network,
    system: SystemConfig,
    plan: CompiledPlan,
    policy: TransferPolicy,
    *,
    bounded_prefetch_window: bool = True,
    sync_after_offload: bool = True,
    sync_after_prefetch: bool = True,
    subject: str = "",
    liveness: Optional[LivenessAnalysis] = None,
) -> Report:
    """Prove (or refute) the SP4xx rules for one compiled plan."""
    report = Report(subject=subject or
                    f"{plan.network_name} {policy.describe()} [static]")
    return _ledger(
        network, system, plan, report, liveness,
        lambda flagged: interpret_plan(
            network, system, plan, policy,
            bounded_prefetch_window=bounded_prefetch_window,
            sync_after_offload=sync_after_offload,
            sync_after_prefetch=sync_after_prefetch,
            report=report, flagged=flagged, subject=report.subject))


def verify_plan(
    network: Network,
    system: SystemConfig,
    policy: TransferPolicy,
    algos: AlgoConfig,
    *,
    bounded_prefetch_window: bool = True,
    sync_after_offload: bool = True,
    sync_after_prefetch: bool = True,
    subject: str = "",
    liveness: Optional[LivenessAnalysis] = None,
) -> Report:
    """Build (or fetch) the compiled plan for a point and verify it."""
    plan = compiled_plan(network, system, algos)
    return verify_compiled_plan(
        network, system, plan, policy,
        bounded_prefetch_window=bounded_prefetch_window,
        sync_after_offload=sync_after_offload,
        sync_after_prefetch=sync_after_prefetch,
        subject=subject, liveness=liveness)


def verify_joint_plan(
    network: Network,
    system: SystemConfig,
    config,
    algos: AlgoConfig,
    subject: str = "",
    liveness: Optional[LivenessAnalysis] = None,
) -> Report:
    """Prove the SP4xx rules for one joint configuration.

    Same ledger as :func:`verify_compiled_plan`; the walk's drop set
    adds the SP405 obligation every drop trigger carries: each dropped
    storage must be re-materializable from state the mixed schedule
    actually keeps resident, and a replay that bottoms out at the
    freed INPUT batch is reported.
    """
    report = Report(subject=subject or
                    f"{network.name} {config.describe()} [static]")
    plan = compiled_plan(network, system, algos)
    return _ledger(
        network, system, plan, report, liveness,
        lambda flagged: interpret_joint_plan(
            network, system, plan, config,
            report=report, flagged=flagged, subject=report.subject))


# ----------------------------------------------------------------------
# Static vDNN_dyn: replay the profiling ladder without simulating
# ----------------------------------------------------------------------
def plan_dynamic_static(
    network: Network, system: SystemConfig
) -> Tuple[TransferPolicy, AlgoConfig, List[ProfilingPass]]:
    """The vDNN_dyn configuration, chosen by interpretation alone.

    Replays :func:`repro.core.dynamic.run_profiling_ladder` — the exact
    probe order and descriptions of :func:`plan_dynamic` — but each
    probe is an abstract walk of the compiled plan instead of a
    simulation, so trainability (peak + external vs budget, pinned
    abort) is decided without executing anything.  The probes are
    recorded as the same :class:`~repro.core.dynamic.ProfilingPass`
    records, and the differential suite asserts both histories are
    equal, probe for probe.

    Raises :class:`repro.core.dynamic.UntrainableError` exactly when
    the dynamic planner would.
    """
    probe, passes = _recording(
        lambda policy, algos, description: interpret_plan(
            network, system, compiled_plan(network, system, algos), policy,
            subject=description))
    policy, algos, _adopted = run_profiling_ladder(
        network, probe, system.gpu.memory_bytes)
    return policy, algos, passes


def plan_joint_static(
    network: Network, system: SystemConfig
) -> Tuple["JointConfig", AlgoConfig, List[ProfilingPass]]:
    """The joint configuration, chosen by interpretation alone.

    The joint analogue of :func:`plan_dynamic_static`: replays
    :func:`repro.core.joint.run_joint_ladder` probe for probe, each an
    abstract walk of the plan under the config's drop set.  The ladder
    adopts by trainability and the deterministic plan-derived cost
    model only — never by simulated time — so this and
    :func:`repro.core.joint.plan_joint` always settle on the identical
    configuration (the parity differential test pins it).
    """
    from ..core.joint import JointConfig, run_joint_ladder

    probe, passes = _recording(
        lambda config, algos, description: interpret_joint_plan(
            network, system, compiled_plan(network, system, algos), config,
            subject=description),
        JointConfig.policy)
    config, algos, _adopted = run_joint_ladder(
        network, system, probe, system.gpu.memory_bytes)
    return config, algos, passes


# ----------------------------------------------------------------------
# Point / zoo drivers (mirror verify.verify_point's subjects, so the
# differential harness can pair static and dynamic reports by subject)
# ----------------------------------------------------------------------
def _algos(network: Network, algo: str) -> AlgoConfig:
    if algo == "m":
        return AlgoConfig.memory_optimal(network)
    return AlgoConfig.performance_optimal(network)


def verify_point_static(
    network: Network,
    policy: str = "all",
    algo: str = "p",
    system: Optional[SystemConfig] = None,
    *,
    liveness: Optional[LivenessAnalysis] = None,
) -> Report:
    """Statically verify one (network, policy, algo) point.

    Subjects match :func:`repro.analysis.verify.verify_point` so the
    two sweeps zip together point for point.  ``liveness`` is the
    audit's ground truth, shared across a sweep row (see
    :func:`audit_plan`).
    """
    from ..core.dynamic import UntrainableError

    system = system or PAPER_SYSTEM
    subject = f"{network.name} {policy}({algo})"
    if policy == "base":
        # Baseline allocates network-wide up front: there is no
        # schedule to prove, only the feasibility bound of §IV-A.
        plan = compiled_plan(network, system, _algos(network, algo))
        report = Report(subject=subject)
        total = plan.baseline_breakdown["total"]
        if total > system.gpu.memory_bytes:
            report.add(
                "SP401",
                f"network-wide allocation of {total} bytes exceeds GPU "
                f"capacity of {system.gpu.memory_bytes} bytes")
        return report
    if policy == "dyn":
        subject = f"{network.name} dyn"
        try:
            transfer, algos, _passes = plan_dynamic_static(network, system)
        except UntrainableError:
            return Report(subject=f"{subject} (untrainable, skipped)")
        return verify_plan(network, system, transfer, algos,
                           subject=subject, liveness=liveness)
    if policy == "joint":
        subject = f"{network.name} joint"
        try:
            config, algos, _passes = plan_joint_static(network, system)
        except UntrainableError:
            return Report(subject=f"{subject} (untrainable, skipped)")
        return verify_joint_plan(network, system, config, algos,
                                 subject=subject, liveness=liveness)
    transfer = {
        "all": TransferPolicy.vdnn_all,
        "conv": TransferPolicy.vdnn_conv,
        "comp": TransferPolicy.vdnn_comp,
        "none": TransferPolicy.none,
    }[policy]()
    return verify_plan(network, system, transfer, _algos(network, algo),
                       subject=subject, liveness=liveness)


def verify_zoo_static(
    names: Optional[Sequence[str]] = None,
    batch: Optional[int] = None,
    policies: Optional[Sequence[Tuple[str, str]]] = None,
    system: Optional[SystemConfig] = None,
) -> List[Report]:
    """Statically verify the whole sweep grid; builds each network, and
    the liveness its audits check plans against, once per row.

    No worker pool: the entire 140-point grid interprets in a few
    seconds, so process fan-out would only add overhead.
    """
    from ..zoo import available, build

    if policies is None:
        from .verify import SWEEP_POLICIES
        policies = SWEEP_POLICIES
    names = list(names) if names else available()
    reports: List[Report] = []
    for name in names:
        network = build(name, batch)
        liveness = LivenessAnalysis(network)
        for policy, algo in policies:
            reports.append(verify_point_static(
                network, policy=policy, algo=algo, system=system,
                liveness=liveness))
    return reports


# ----------------------------------------------------------------------
# SP405: checkpoint/recompute plans
# ----------------------------------------------------------------------
def verify_recompute_plan(
    network: Network,
    segment_count: Optional[int] = None,
    plan: Optional[CheckpointPlan] = None,
    keep_input: bool = True,
    subject: str = "",
) -> Report:
    """Prove a checkpoint plan re-materializes everything it drops.

    Two layers of checks: the partition itself (checkpoints and dropped
    sets disjoint, covering exactly the droppable storages, in order),
    then an abstract regeneration walk — every dropped storage must be
    reachable from still-resident state by replaying producers, exactly
    the recursion :meth:`_RecomputeSimulation._ensure_storage` performs.

    ``keep_input=False`` models the ablation where the input batch does
    not survive forward propagation (the executor's input-protection
    guard removed): regeneration then bottoms out at freed state for
    any segment whose replay reaches the INPUT storage.
    """
    report = Report(subject=subject or f"{network.name} recompute [static]")
    liveness = LivenessAnalysis(network)
    if plan is None:
        plan = checkpoint_plan(network, liveness, segment_count)

    droppable_expected = sorted(
        s.owner for s in liveness.all_storages()
        if s.needed_backward
        and network[s.owner].is_feature_extraction
        and network[s.owner].kind is not LayerKind.INPUT)
    order = list(plan.droppable_order)

    overlap = plan.checkpoints & plan.dropped
    if overlap:
        report.add(
            "SP405",
            f"checkpoint partition inconsistent: storages "
            f"{sorted(overlap)} are both checkpointed and dropped")
    if set(order) != (plan.checkpoints | plan.dropped):
        report.add(
            "SP405",
            f"checkpoint partition inconsistent: droppable order "
            f"{order} does not cover checkpoints ∪ dropped exactly")
    if sorted(order) != droppable_expected:
        report.add(
            "SP405",
            f"droppable order {order} disagrees with liveness "
            f"(expected owners {droppable_expected})")
    elif order != sorted(order):
        report.add(
            "SP405",
            f"droppable order {order} is not ascending — the segment "
            f"walk-back would anchor on the wrong checkpoint")

    # Abstract regeneration walk.  Resident entering backward: every
    # needed-backward storage the forward pass did not drop, plus the
    # protected input batch.
    resident = {
        s.owner for s in liveness.all_storages()
        if s.needed_backward and s.owner not in plan.dropped
    }
    input_owners = {n.storage_index for n in network
                    if n.kind is LayerKind.INPUT}
    if plan.dropped:
        if keep_input:
            resident |= input_owners
        else:
            resident -= input_owners

    memo: Dict[int, bool] = {}

    def materializable(owner: int, stack: Set[int]) -> bool:
        if owner in resident:
            return True
        if owner in memo:
            return memo[owner]
        if owner in stack:
            return False
        if network[owner].kind is LayerKind.INPUT:
            return False  # inputs cannot be recomputed from anything
        stack.add(owner)
        good = True
        info = liveness.storages[owner]
        for member in info.chain:
            for producer in network[member].producers:
                source = network[producer].storage_index
                if source == owner:
                    continue
                if not materializable(source, stack):
                    good = False
        stack.discard(owner)
        memo[owner] = good
        return good

    for owner in sorted(plan.dropped):
        if not materializable(owner, set()):
            report.add(
                "SP405",
                f"dropped storage Y{owner} ({network[owner].name}) "
                f"cannot be re-materialized before its backward "
                f"consumer: regeneration bottoms out at freed state")
    return report


# ----------------------------------------------------------------------
# SP406: serve ServicePlan accounting
# ----------------------------------------------------------------------
def verify_service_plan(
    network: Network,
    system: Optional[SystemConfig],
    algos: AlgoConfig,
    plan,
    subject: str = "",
) -> Report:
    """Check a :class:`~repro.serve.layering.ServicePlan`'s invariants.

    Re-derives the plan's accounting from first principles (per-layer
    weights, liveness-based activation peak) and checks the pipeline
    identities that must hold for any serial-DMA/serial-compute
    recurrence.  Pass ``system=None`` to skip the SP401 footprint-vs-
    budget warning.
    """
    from ..core.inference import weight_load_bytes
    from ..serve.layering import activation_peak_bytes, streamed_layer_bytes

    report = Report(subject=subject or
                    f"{plan.model} serve[{plan.residency}] [static]")
    weights = weight_load_bytes(network)
    streamed = streamed_layer_bytes(network, plan)

    if plan.persistent_bytes + plan.streamed_bytes != plan.weight_bytes:  # repro: allow(LINT204)
        report.add(
            "SP406",
            f"persistent {plan.persistent_bytes} + streamed "
            f"{plan.streamed_bytes} != total weights "
            f"{plan.weight_bytes} bytes")
    if sum(streamed.values()) != plan.streamed_bytes:  # repro: allow(LINT204)
        report.add(
            "SP406",
            f"streamed_bytes {plan.streamed_bytes} disagrees with the "
            f"per-layer streamed map (sums to {sum(streamed.values())})")
    unknown = sorted(set(plan.pinned_layers) - set(weights))
    if unknown:
        report.add(
            "SP406",
            f"pinned layers {unknown} have no weights to pin")
    pinned_sum = sum(weights[i] for i in plan.pinned_layers
                     if i in weights)
    if pinned_sum != plan.persistent_bytes:  # repro: allow(LINT204)
        report.add(
            "SP406",
            f"pinned layers sum to {pinned_sum} bytes but "
            f"persistent_bytes is {plan.persistent_bytes}")
    if plan.residency == "resident" and plan.streamed_bytes:
        report.add(
            "SP406",
            f"resident plan streams {plan.streamed_bytes} bytes — "
            f"resident residency must keep every weight on-device")
    if plan.residency == "layered" and plan.persistent_bytes:
        report.add(
            "SP406",
            f"layered plan pins {plan.persistent_bytes} bytes — "
            f"layered residency keeps nothing persistent")
    if plan.streamed_bytes:
        largest = max(streamed.values(), default=0)
        if plan.window_bytes < largest:
            report.add(
                "SP406",
                f"window of {plan.window_bytes} bytes cannot hold the "
                f"largest streamed layer ({largest} bytes): the "
                f"pipeline can never make progress")
    elif plan.window_bytes or plan.dma_seconds or plan.stall_seconds:
        report.add(
            "SP406",
            f"nothing streams but window={plan.window_bytes}, "
            f"dma={plan.dma_seconds}, stall={plan.stall_seconds} are "
            f"not all zero")
    if plan.stall_seconds > plan.dma_seconds + 1e-9:
        report.add(
            "SP406",
            f"stall {plan.stall_seconds}s exceeds total DMA "
            f"{plan.dma_seconds}s: compute can only idle while a "
            f"transfer is in flight")
    if not math.isclose(plan.service_seconds,
                        plan.compute_seconds + plan.stall_seconds,
                        rel_tol=1e-9, abs_tol=1e-12):
        report.add(
            "SP406",
            f"service {plan.service_seconds}s != compute "
            f"{plan.compute_seconds}s + stall {plan.stall_seconds}s")
    expected_act = activation_peak_bytes(network, algos)
    if plan.activation_bytes != expected_act:  # repro: allow(LINT204)
        report.add(
            "SP406",
            f"activation_bytes {plan.activation_bytes} disagrees with "
            f"the liveness-derived peak {expected_act}")
    if system is not None \
            and plan.footprint_bytes > system.gpu.memory_bytes:
        report.add(
            "SP401",
            f"service footprint {plan.footprint_bytes} bytes exceeds "
            f"GPU capacity {system.gpu.memory_bytes} bytes")
    return report
