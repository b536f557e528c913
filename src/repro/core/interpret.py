"""Abstract interpretation of one compiled plan: the executor's static twin.

:func:`interpret_plan` walks a :class:`~repro.core.plan.CompiledPlan`
with an interval-abstracted pool (live/peak bytes, aligned like the real
:class:`~repro.alloc.pool.PoolAllocator`), a pinned-host counter and
per-stream happens-before positions (a serial ``mem_pos`` issue counter
against a ``synced_through`` watermark).  It is the abstract domain of
the one vDNN walk (:class:`repro.core.walk.PlanWalk`) whose timed
domain is :class:`repro.core.executor._VDNNSimulation`: the schedule,
a joint point's drop set included, is decided once for both, so on a
clean plan its peak equals the simulated ``managed_max_bytes`` exactly.

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
from typing import Dict, FrozenSet, Optional, Set, Tuple

from ..analysis.diagnostics import Report, Severity
from ..graph.network import Network
from ..hw.config import SystemConfig
from .plan import CompiledPlan
from .policy import TransferPolicy
from .walk import PlanWalk


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


class _PlanInterpreter(PlanWalk):
    """The abstract domain of the vDNN walk (:class:`~repro.core.walk.PlanWalk`).

    State tracked: aligned pool live/peak bytes, pinned-host live/peak,
    the owner→footprint device and gradient tables (footprints are
    plan-compiled: ``aligned`` / ``ws_aligned``), and the
    happens-before abstraction — every DMA gets a serial issue position
    ``mem_pos`` and every sync raises the ``synced_through`` watermark;
    an operation that reads or reuses a buffer is safe iff the covering
    transfer's position is at or below the watermark.

    A dropped storage stages nothing; backward replays its producer chains
    abstractly (allocate Y, workspace alloc/free per chain member).
    """

    #: SP404: the buffer a walk step frees or reads is not there.
    _MISSING = {
        "dead": "fwd {}: dead release of Y{} targets nothing (buffer not "
                "on device)",
        "drop": "fwd {}: drop of Y{} targets nothing (buffer not on "
                "device)",
        "offload": "fwd {}: post-offload release of Y{} targets nothing",
        "required": "bwd {}: kernel needs Y{} but it is neither on device "
                    "nor staged in host memory — a release list freed it "
                    "too early (use-after-free)",
        "Y": "bwd {}: release of Y{} targets nothing (already freed, or "
             "never allocated)",
        "dY": "bwd {}: release of dY{} targets nothing (already freed, or "
              "never allocated)",
    }

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
        super().__init__(network, system, policy, plan,
                         bounded_prefetch_window, sync_after_offload,
                         sync_after_prefetch, drop)
        self.report = report if report is not None else Report(subject)
        self.flagged = flagged
        self.budget = system.gpu.memory_bytes
        # Managed bytes past which the device overflows.
        self._room = self.budget - self.external_bytes
        self.pinned_capacity = system.host.max_pinned_bytes

        self.live = 0
        self.peak = 0
        # (template, args) of the peak step, formatted once by run().
        self._peak_label: Tuple[str, tuple] = ("", ())
        self.first_over_budget: Optional[str] = None
        self.pinned_live = 0
        self.pinned_peak = 0

        self.mem_pos = 0
        self.synced_through = 0
        self.offload_pos: Dict[int, int] = {}
        # owner -> mem op of the prefetch that restored it, until the
        # first kernel reads it (the SP403 check)
        self._unread: Dict[int, int] = {}
        self._window_prefetched: Set[int] = set()
        self._sp405_seen: Set[int] = set()

    # -- pool abstraction ----------------------------------------------
    def _charge(self, aligned: int, label: str, *args) -> int:
        """Charge one footprint.  The step is named by
        ``label.format(*args)``, formatted only if it is ever reported
        (the peak step, or the first over-budget step)."""
        live = self.live + aligned
        self.live = live
        if live > self.peak:
            self.peak = live
            self._peak_label = (label, args)
        if live > self._room and self.first_over_budget is None:
            self.first_over_budget = (
                f"{label.format(*args)}: managed {live} + external "
                f"{self.external_bytes} bytes > GPU capacity {self.budget} "
                f"bytes")
        return aligned

    def _free(self, aligned: int, layer: int, phase: str) -> None:
        self.live -= aligned

    def _alloc_weights(self, item) -> None:
        self._charge(item.aligned, "persistent W[{}]", item.index)
        self._charge(item.aligned, "persistent dW[{}]", item.index)

    def _alloc_output(self, step, rec) -> int:
        return self._charge(rec.aligned, "fwd {}: alloc Y{}", step.name,
                            rec.owner)

    def _alloc_workspace(self, ws, step, phase: str) -> int:
        if ws is step:
            return self._charge(ws.ws_aligned, "{} {}: workspace", phase,
                                step.name)
        # alloc → replay kernel → free: same peak as the executor's
        # transient replay workspace.
        return self._charge(ws.ws_aligned, "bwd {}: remat workspace {}(re)",
                            step.name, ws.name)

    def _alloc_gradient(self, step, rec) -> int:
        return self._charge(rec.aligned, "bwd {}: alloc dY{}", step.name,
                            rec.owner)

    def _alloc_restore(self, step, rec, target: int) -> int:
        return self._charge(
            rec.aligned, "bwd {}: prefetch Y{}" if target >= 0
            else "bwd {}: demand restore Y{}", step.name, rec.owner)

    def _alloc_replay(self, step, rec) -> int:
        return self._charge(rec.aligned, "bwd {}: remat Y{} ({})",
                            step.name, rec.owner, rec.name)

    # -- transfers and syncs -------------------------------------------
    def _stage(self, step, rec, wire: int, compress: bool, issued) -> bool:
        if self.pinned_live + wire > self.pinned_capacity:
            # The executor raises PinnedMemoryError here and the
            # iteration aborts with partial stats: stop the walk at the
            # identical point.
            raise _AbortWalk(
                f"host pinned memory exhausted at fwd {step.name}: "
                f"{self.pinned_live} + {wire} > "
                f"{self.pinned_capacity} bytes")
        self.pinned_live += wire
        self.pinned_peak = max(self.pinned_peak, self.pinned_live)
        self.mem_pos += 1
        self.offload_pos[rec.owner] = self.mem_pos
        if rec.owner not in self.flagged and (
                not rec.info.needed_backward
                or rec.info.forward_release_at != step.index):
            self.report.add(
                "SP402",
                f"fwd {step.name}: offload of Y{rec.owner} violates "
                f"the refcount gate (needed_backward="
                f"{rec.info.needed_backward}, last forward consumer "
                f"is layer {rec.info.forward_release_at})",
                refs=(f"fwd#{step.index}", f"mem op #{self.mem_pos}"))
        return True

    def _fetch(self, step, rec, target: int) -> bool:
        self.mem_pos += 1
        self.pinned_live -= self.host[rec.owner]
        if target >= 0:
            self._unread[rec.owner] = self.mem_pos
        return True

    def _sync(self, cause: str, name, layer_index: int) -> None:
        # A demand fetch is blocking, so it syncs too: it never races.
        self.synced_through = self.mem_pos

    def _unsynced_reads(self, step) -> None:
        # The kernel reads its required buffers here: any of them that
        # arrived by an *asynchronous* prefetch must be covered by a
        # sync, or the read races the DMA (the static twin of HB003).
        unread = self._unread
        for rec in step.required:
            if rec.owner not in unread:
                continue
            pos = unread.pop(rec.owner)
            if pos > self.synced_through and rec.owner not in self.flagged:
                self.report.add(
                    "SP403",
                    f"bwd {step.name}: kernel reads Y{rec.owner} "
                    f"restored by prefetch (mem op #{pos}) with no sync "
                    f"since mem op #{self.synced_through} — the §III-C "
                    f"guarantee (prefetch ready before the next "
                    f"backward layer) does not hold",
                    refs=(f"bwd#{step.index}", f"prefetch mem op #{pos}",
                          f"synced through #{self.synced_through}"))

    # -- findings --------------------------------------------------------
    def _missing(self, step, owner: int, site: str) -> None:
        if owner not in self.flagged:
            template = self._MISSING[site]
            self.report.add("SP404", template.format(step.name, owner),
                            refs=(f"{template[:3]}#{step.index}",))

    def _check_dead(self, step, dead) -> None:
        index = step.index
        if dead.owner in self.flagged:
            return
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

    def _unsynced_free(self, step, rec) -> None:
        pos = self.offload_pos[rec.owner]
        if rec.owner not in self.flagged:
            self.report.add(
                "SP402",
                f"fwd {step.name}: Y{rec.owner} freed while its "
                f"offload (mem op #{pos}) may still be reading it — no "
                f"sync since mem op #{self.synced_through} (missing "
                f"end-of-layer sync, §III-B)",
                refs=(f"fwd#{step.index}", f"offload mem op #{pos}",
                      f"synced through #{self.synced_through}"))

    def _unbounded_prefetch(self, target: int, issue: int) -> None:
        """SP403 warning: the Fig. 10 CONV-bounded window (HB004 twin).

        Walks the CONV ids strictly between ``target`` and ``issue``
        down the compiled floor and reports the lowest violating one.
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

    def _replaying(self, step, owner: int) -> None:
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

    def _swept(self, owner: int, is_gradient: bool) -> None:
        """The static leak check.  The protected input survives forward
        by design when anything drops, so it is swept silently."""
        if owner in self.flagged:
            return
        if is_gradient:
            self.report.add(
                "SP404",
                f"end sweep: dY{owner} still live after backward — "
                f"no release list ever freed it (static leak)",
                refs=("end-sweep",))
            return
        rec = self.plan.records.get(owner)
        if rec is None or owner in self._protected:
            return
        info = rec.info
        if info.needed_backward or info.forward_release_at != info.chain[-1]:
            self.report.add(
                "SP404",
                f"end sweep: Y{owner} ({rec.name}) still live after "
                f"backward — no release list ever freed it "
                f"(static leak)",
                refs=("end-sweep",))

    def run(self) -> PlanInterpretation:
        result = PlanInterpretation(
            subject=self.report.subject,
            budget_bytes=self.budget,
            external_bytes=self.external_bytes,
        )
        try:
            self.allocate_persistent()
            self.run_forward()
            self.run_backward()
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
        report=report, flagged=flagged, subject=subject,
        drop=plan.candidate_owners(drop))
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
