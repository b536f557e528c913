"""Abstract interpretation of one compiled plan: the executor's static twin.

:func:`interpret_plan` walks a :class:`~repro.core.plan.CompiledPlan`
with an interval-abstracted pool (live/peak bytes, aligned like the real
:class:`~repro.alloc.pool.PoolAllocator`), a pinned-host counter and
per-stream happens-before positions (a serial ``mem_pos`` issue counter
against a ``synced_through`` watermark).  It follows
:class:`repro.core.executor._VDNNSimulation` step for step, a joint
point's drop set included, so on a clean plan its peak equals the
simulated ``managed_max_bytes`` exactly.

The vDNN_dyn and joint ladders probe with it.  The static plan verifier
(``repro verify --static``) passes a
:class:`~repro.analysis.diagnostics.Report` in to collect its findings.
Both share one memo on the plan (``CompiledPlan.walk_memo``), keyed by
the schedule a walk executes: a walk that found nothing runs once per
plan and schedule, so verifying a point a ladder adopted reuses the
probe's walk, and columns whose policies select the same schedule share
one.
Like the executor, this module imports only a leaf of the analysis
package.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..analysis.diagnostics import Report, Severity
from ..graph.network import Network
from ..hw.config import SystemConfig
from .plan import CompiledPlan, StorageRecord
from .policy import TransferPolicy
from .prefetcher import PrefetchState, find_prefetch_layer


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


def _walk(
    network: Network,
    system: SystemConfig,
    plan: CompiledPlan,
    policy: TransferPolicy,
    *,
    report: Optional[Report],
    flagged: FrozenSet[int],
    subject: str,
    drop: FrozenSet[int] = frozenset(),
    bounded_prefetch_window: bool = True,
    sync_after_offload: bool = True,
    sync_after_prefetch: bool = True,
) -> PlanInterpretation:
    """One walk of ``plan``, served from its walk memo when a walk of
    the same schedule already ran clean.

    The memo is keyed by what the walk executes, the plan's
    :class:`~repro.core.plan.ScheduleKey` less the plan itself (the memo
    lives on it): the offload triggers ``policy`` selects, the subset of
    them that compress, the drop set, the three schedule flags and the
    whole system (GPU capacity and the pinned-host budget decide
    trainability and aborts).  ``flagged`` joins it, since flagged
    owners silence findings.  So two policies, or a policy and a joint
    config, that select the same schedule share one walk.  Only a walk
    that added no diagnostic is stored, so a defective plan reports its
    findings on every walk; a hit is a copy carrying the caller's
    subject.
    """
    key = (plan.schedule_key(
        network, system, policy, drop=drop,
        bounded_prefetch_window=bounded_prefetch_window,
        sync_after_offload=sync_after_offload,
        sync_after_prefetch=sync_after_prefetch)[1:], flagged)
    hit = plan.walk_memo.get(key)
    if hit is not None:
        return replace(hit, subject=report.subject if report is not None
                       else subject)
    walker = _PlanInterpreter(
        network, system, plan, policy,
        bounded_prefetch_window=bounded_prefetch_window,
        sync_after_offload=sync_after_offload,
        sync_after_prefetch=sync_after_prefetch,
        report=report, flagged=flagged, subject=subject, drop=drop)
    before = len(walker.report.diagnostics)
    result = walker.run()
    if len(walker.report.diagnostics) == before:
        plan.walk_memo[key] = result
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
    A clean walk runs once per plan and schedule (see :func:`_walk`).
    """
    return _walk(
        network, system, plan, policy,
        bounded_prefetch_window=bounded_prefetch_window,
        sync_after_offload=sync_after_offload,
        sync_after_prefetch=sync_after_prefetch,
        report=report, flagged=flagged, subject=subject)


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
    :func:`interpret_plan` walk with the config's drop set, sharing its
    memo."""
    return _walk(network, system, plan, config.policy(), report=report,
                 flagged=flagged, subject=subject, drop=config.drop)
