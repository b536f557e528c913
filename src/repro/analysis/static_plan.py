"""Static plan verifier: prove vDNN invariants before anything runs.

The dynamic sanitizer (:mod:`repro.analysis.hb` / ``safety``) certifies
a schedule by *running* it under ``verify=True`` — one full simulation
per point.  PR 7's :class:`~repro.core.plan.CompiledPlan` hoists the
exact facts those proofs need (liveness, release orders, refcount-gated
offload candidates, DMA issue order), so the same conditions can be
proved *statically*: this module walks the plan with the abstract
interpreter of :mod:`repro.core.interpret` — an interval-abstracted
pool, a pinned-host counter and per-stream happens-before positions —
and either certifies the SP4xx rules or produces a counterexample trace
naming the exact step.

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

The walk is the simulator's own (:class:`repro.core.walk.PlanWalk`),
run in its abstract domain instead of the timed one, so on a clean plan
the statically computed peak equals the simulated ``managed_max_bytes``
*exactly* — the differential tests assert bit-equality, not closeness.  No simulation runs anywhere in
this module: the whole 140-point zoo grid verifies in under two
seconds, most of it in the abstract walks, each plan audited once and
each clean walk run once (see docs/performance.md).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..core.algo_config import AlgoConfig
from ..core.api import point_label, resolve_point
from ..core.dynamic import UntrainableError
# The walk is re-exported: callers and tests bind it by this module.
from ..core.interpret import (PlanInterpretation, interpret_joint_plan,
                              interpret_plan)
from ..core.liveness import liveness_of
from ..core.plan import CompiledPlan, compiled_plan
from ..core.policy import TransferPolicy
from ..core.recompute import CheckpointPlan, checkpoint_plan
from ..graph.layer import LayerKind
from ..graph.network import Network
from ..hw.config import PAPER_SYSTEM, SystemConfig
from .diagnostics import Report


# ----------------------------------------------------------------------
# Structural audit (SP402/SP404): plan lifecycle vs liveness ground truth
# ----------------------------------------------------------------------
def audit_plan(network: Network, plan: CompiledPlan,
               report: Report) -> Set[int]:
    """Audit every storage's whole lifecycle against the network's
    liveness.

    Position-independent checks: each allocation must be freed exactly
    once, at the step liveness dictates, by the mechanism the refcount
    gate allows.  Returns the set of flagged owners so the walk can
    skip its own (now redundant) findings for them.

    The ground truth is the network's one analysis
    (:func:`~repro.core.liveness.liveness_of`).  It is shared, not
    independent: the plan was compiled from it, and each
    ``StorageRecord.info`` is one of its frozen ``StorageInfo`` objects.
    What the audit checks is the schedules the plan derived from those
    facts (release lists, dead-release and offload sites).
    """
    liveness = liveness_of(network)
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
            report: Report, walk) -> Report:
    """The structural audit, SP407, one abstract walk and the SP401
    tail; ``walk(flagged)`` interprets the plan into ``report``.

    One audit per plan: neither audit reads the policy, and
    :func:`audit_compression` reads only the compression model and the
    link, so a plan whose audits came back clean on that hardware is not
    audited again (``plan.audit_memo``).  A clean audit flags nothing.
    """
    hardware = (system.pcie, system.compression)
    if hardware in plan.audit_memo:
        flagged = frozenset()
    else:
        before = len(report.diagnostics)
        flagged = frozenset(audit_plan(network, plan, report))
        audit_compression(network, system, plan, report)
        if len(report.diagnostics) == before:
            plan.audit_memo.add(hardware)
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
) -> Report:
    """Prove (or refute) the SP4xx rules for one compiled plan."""
    report = Report(subject=subject or
                    f"{plan.network_name} {policy.describe()} [static]")
    return _ledger(
        network, system, plan, report,
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
) -> Report:
    """Build (or fetch) the compiled plan for a point and verify it."""
    plan = compiled_plan(network, system, algos)
    return verify_compiled_plan(
        network, system, plan, policy,
        bounded_prefetch_window=bounded_prefetch_window,
        sync_after_offload=sync_after_offload,
        sync_after_prefetch=sync_after_prefetch,
        subject=subject)


def verify_joint_plan(
    network: Network,
    system: SystemConfig,
    config,
    algos: AlgoConfig,
    subject: str = "",
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
        network, system, plan, report,
        lambda flagged: interpret_joint_plan(
            network, system, plan, config,
            report=report, flagged=flagged, subject=report.subject))


# ----------------------------------------------------------------------
# Point / zoo drivers (mirror verify.verify_point's subjects, so the
# differential harness can pair static and dynamic reports by subject)
# ----------------------------------------------------------------------
def verify_point_static(
    network: Network,
    policy: str = "all",
    algo: str = "p",
    system: Optional[SystemConfig] = None,
) -> Report:
    """Statically verify one (network, policy, algo) point.

    Subjects match :func:`repro.analysis.verify.verify_point` so the
    two sweeps zip together point for point.
    """
    system = system or PAPER_SYSTEM
    subject = f"{network.name} {point_label(policy, algo)}"
    try:
        point = resolve_point(network, system, policy, algo)
    except UntrainableError:
        return Report(subject=f"{subject} (untrainable, skipped)")
    if policy == "base":
        # Baseline allocates network-wide up front: there is no
        # schedule to prove, only the feasibility bound of §IV-A.
        plan = compiled_plan(network, system, point.algos)
        report = Report(subject=subject)
        total = plan.baseline_breakdown["total"]
        if total > system.gpu.memory_bytes:
            report.add(
                "SP401",
                f"network-wide allocation of {total} bytes exceeds GPU "
                f"capacity of {system.gpu.memory_bytes} bytes")
        return report
    if policy == "joint":
        return verify_joint_plan(network, system, point.config, point.algos,
                                 subject=subject)
    return verify_plan(network, system, point.config, point.algos,
                       subject=subject)


def verify_zoo_static(
    names: Optional[Sequence[str]] = None,
    batch: Optional[int] = None,
    policies: Optional[Sequence[Tuple[str, str]]] = None,
    system: Optional[SystemConfig] = None,
) -> List[Report]:
    """Statically verify the whole sweep grid; builds each network once
    per row.

    A row's points share their network's plans, and each plan keeps its
    clean audits and walks (``CompiledPlan.audit_memo`` / ``walk_memo``):
    a plan is audited once, and the verifier's walk of a point a ladder
    adopted is the ladder's probe.  No worker pool: the entire 140-point
    grid interprets in under two seconds, so process fan-out would only
    add overhead.
    """
    from ..zoo import available, build

    if policies is None:
        from .verify import SWEEP_POLICIES
        policies = SWEEP_POLICIES
    names = list(names) if names else available()
    reports: List[Report] = []
    for name in names:
        network = build(name, batch)
        for policy, algo in policies:
            reports.append(verify_point_static(
                network, policy=policy, algo=algo, system=system))
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
    liveness = liveness_of(network)
    if plan is None:
        plan = checkpoint_plan(network, segment_count)

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
