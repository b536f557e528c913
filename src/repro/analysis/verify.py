"""The schedule sanitizer driver: simulate once, then verify statically.

``verify_point`` runs one (network, policy, algo) simulation with
``verify=True`` — the executor records a :class:`ScheduleTrace`
alongside its timeline — and feeds the trace to both analysis passes
(:mod:`repro.analysis.hb` and :mod:`repro.analysis.safety`).  No
re-simulation happens per rule: the passes are pure functions of the
already-generated artifacts.

``verify_zoo`` sweeps every zoo network across the paper's policy grid
{base, vDNN_conv, vDNN_all, vDNN_dyn} x {m, p} (dynamic picks its own
algorithms, so it contributes one point), optionally fanning networks
out over worker processes — the CI ``verify-sweep`` gate.  Each network
is built once and shared by its row of points, and each distinct
schedule of a row is simulated and analyzed once.

``verify_schedule`` checks the multi-tenant scheduler's shared-pool
schedules (MT3xx rules): budget never exceeded, residency intervals
well-formed, no job allocation leaked, lifecycle records consistent.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import groupby
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

# verify_zoo loads no module when called: the static engine and the zoo
# registry load with this one.  ``zoo.build`` is read at call time, so a
# builder patched onto the package is the one that runs.
from .. import zoo
from ..core.api import point_label, resolve_point
from ..core.dynamic import UntrainableError
from ..core.executor import IterationResult
from ..core.liveness import LivenessAnalysis
from ..core.plan import ScheduleKey
from ..graph.network import Network
from ..hw.config import PAPER_SYSTEM, SystemConfig
from ..sim.timeline import EventKind
from ..zoo import available
from .diagnostics import Report
from .hb import HBGraph, check_races
from .safety import check_memory_safety
from .static_plan import verify_zoo_static
from .trace import ScheduleTrace

if TYPE_CHECKING:
    from ..sched.scheduler import ScheduleResult

#: The CI sweep grid: the four paper policies plus the cDMA-compressed
#: offload and the joint keep/offload/compress/recompute planner;
#: dynamic and joint select their own algorithm configuration, so each
#: is one point instead of two.
SWEEP_POLICIES: Tuple[Tuple[str, str], ...] = (
    ("base", "m"), ("base", "p"),
    ("conv", "m"), ("conv", "p"),
    ("all", "m"), ("all", "p"),
    ("comp", "m"), ("comp", "p"),
    ("dyn", "-"),
    ("joint", "-"),
)


def analyze_trace(
    trace: ScheduleTrace,
    network: Optional[Network] = None,
    liveness: Optional[LivenessAnalysis] = None,
    subject: str = "",
) -> Report:
    """Run both trace passes (races, memory safety) over one trace."""
    report = Report(subject=subject)
    hb = HBGraph(trace)
    report.extend(check_races(trace, hb, network=network, subject=subject))
    report.extend(check_memory_safety(trace, hb, liveness=liveness,
                                      subject=subject))
    return report


def verify_result(result: IterationResult,
                  network: Optional[Network] = None,
                  subject: str = "") -> Report:
    """Verify an executor result that carries a schedule trace."""
    return _verify_result(result, network, subject, liveness=None)


def _verify_result(result: IterationResult, network: Optional[Network],
                   subject: str,
                   liveness: Optional[LivenessAnalysis]) -> Report:
    """``verify_result`` with the network's liveness, when already built."""
    subject = subject or f"{result.network_name} {result.label}"
    if result.schedule_trace is None:
        raise ValueError(
            f"{subject}: result carries no schedule trace; re-run the "
            f"simulation with verify=True")
    if result.failure and ("pinned" in result.failure
                           or "DMA transfer permanently failed"
                           in result.failure):
        # The iteration aborted mid-flight (pinned-host exhaustion or a
        # DMA that ran out of retries): the trace is truncated, so its
        # dangling lifetimes are artifacts, not leaks.
        return Report(subject=f"{subject} (aborted: {result.failure})")
    if liveness is None and network is not None:
        liveness = LivenessAnalysis(network)
    return analyze_trace(result.schedule_trace, network=network,
                         liveness=liveness, subject=subject)


def verify_point(
    network: Network,
    policy: str = "all",
    algo: str = "p",
    system: Optional[SystemConfig] = None,
) -> Report:
    """Simulate one configuration with tracing on, then verify it."""
    return _verify_point(network, policy, algo, system, liveness=None)


def _verify_point(network: Network, policy: str, algo: str,
                  system: Optional[SystemConfig],
                  liveness: Optional[LivenessAnalysis],
                  analyzed: Optional[Dict[ScheduleKey, Tuple[str, Report]]]
                  = None) -> Report:
    """``verify_point``; ``analyzed`` maps each schedule a row already
    verified to its (subject, report), and a point with one of those
    schedules gets that report under its own subject instead of a second
    traced simulation and trace analysis."""
    system = system or PAPER_SYSTEM
    subject = f"{network.name} {point_label(policy, algo)}"
    try:
        point = resolve_point(network, system, policy, algo)
    except UntrainableError:
        # Nothing to verify: the planner found no feasible schedule,
        # so no schedule exists to be racy or unsafe.
        return Report(subject=f"{subject} (untrainable, skipped)")
    key = None if analyzed is None else point.schedule_key()
    seen = None if key is None else analyzed.get(key)
    if seen is None:
        report = _verify_result(point.simulate(verify=True), network,
                                subject, liveness)
        if key is not None:
            analyzed[key] = (subject, report)
        return report
    first_subject, first = seen
    # An aborted run's report subject carries the failure after the
    # point's label; the diagnostics carry the bare label.
    return Report(subject=subject + first.subject[len(first_subject):],
                  diagnostics=[replace(diagnostic, subject=subject)
                               for diagnostic in first.diagnostics])


# ----------------------------------------------------------------------
# Zoo sweep (the CI gate)
# ----------------------------------------------------------------------
#: One sweep task: (network name, batch, policy, algo).
_Task = Tuple[str, Optional[int], str, str]


def _verify_row(row: Sequence[_Task]) -> List[Report]:
    """Worker entry: verify a run of points that share one network.

    The network and its liveness are built once per row, so every point
    of the row reuses its compiled plans.  Every point is resolved (its
    ladder runs), but a schedule is simulated and analyzed once per row:
    a point whose :class:`~repro.core.plan.ScheduleKey` an earlier point
    of the row already had gets that point's diagnostics under its own
    subject.
    """
    name, batch = row[0][:2]
    network = zoo.build(name, batch)
    liveness = LivenessAnalysis(network)
    analyzed: Dict[ScheduleKey, Tuple[str, Report]] = {}
    return [_verify_point(network, policy, algo, None, liveness, analyzed)
            for _name, _batch, policy, algo in row]


def verify_zoo(
    names: Optional[Sequence[str]] = None,
    batch: Optional[int] = None,
    jobs: int = 1,
    policies: Sequence[Tuple[str, str]] = SWEEP_POLICIES,
    mode: str = "dynamic",
) -> List[Report]:
    """Verify every (network, policy, algo) point of the sweep grid.

    ``mode`` selects the engine:

    * ``dynamic`` — simulate with tracing on and run the trace passes:
      one simulation per distinct schedule of a row
      (:class:`~repro.core.plan.ScheduleKey`); a point whose schedule
      its row already verified reuses that report under its own
      subject.
    * ``static`` — prove the SP4xx invariants by abstract
      interpretation of the compiled plans
      (:mod:`repro.analysis.static_plan`); no simulation executes.
    * ``hybrid`` — static sweep first, then dynamic re-verification
      only for the points the static pass could not certify clean.
      Since static-clean implies dynamic-clean (the differential suite
      proves it), the skipped simulations are redundant by
      construction.  Reports keep grid order; re-verified points carry
      the dynamic report.
    """
    if mode not in ("dynamic", "static", "hybrid"):
        raise ValueError(f"unknown verify mode {mode!r}")
    if mode == "static":
        return verify_zoo_static(names=names, batch=batch,
                                 policies=policies)

    names = list(names) if names else available()
    tasks = [(name, batch, policy, algo)
             for name in names for policy, algo in policies]

    if mode == "hybrid":
        reports = verify_zoo_static(names=names, batch=batch,
                                    policies=policies)
        tasks = [task for task, report in zip(tasks, reports)
                 if not report.ok]
        if not tasks:
            return reports
        merged = list(reports)
        dirty = iter(_run_tasks(tasks, jobs))
        for position, report in enumerate(merged):
            if not report.ok:
                merged[position] = next(dirty)
        return merged

    return _run_tasks(tasks, jobs)


def _run_tasks(tasks: Sequence[_Task], jobs: int) -> List[Report]:
    """Verify ``tasks`` in order, one unit of work per run of
    consecutive tasks with the same ``(name, batch)``."""
    rows = [list(row) for _key, row in
            groupby(tasks, key=lambda task: (task[0], task[1]))]
    if jobs > 1 and len(rows) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(rows))) as pool:
            done = list(pool.map(_verify_row, rows))
    else:
        done = [_verify_row(row) for row in rows]
    return [report for reports in done for report in reports]


# ----------------------------------------------------------------------
# Multi-tenant shared-pool schedules
# ----------------------------------------------------------------------
def verify_schedule(result: ScheduleResult, subject: str = "") -> Report:
    """Check one multi-tenant schedule's shared-pool invariants.

    Budget checks honour the budget *step function*: a mid-run shrink
    (fault injection) lowers the bound from its instant onward, so
    occupancy legal under the earlier, larger budget is not flagged.
    """
    report = Report(subject=subject or f"multi-tenant {result.policy}")

    steps = sorted(result.budget_timeline) or [(0.0, result.budget_bytes)]
    max_budget = max(budget for _when, budget in steps)
    if result.peak_pool_bytes > max_budget:
        report.add(
            "MT301",
            f"pool high-water {result.peak_pool_bytes} bytes exceeds "
            f"budget {max_budget} bytes")

    # Usage samples against the budget in force strictly before each
    # sample: samples logged *during* a multi-victim shrink (occupancy
    # still draining at the shrink instant) are judged by the budget
    # they were accumulated under, not the one being installed.
    def budget_before(time: float) -> int:
        budget = steps[0][1]
        for when, value in steps:
            if when < time:
                budget = value
            else:
                break
        return budget

    for time, live in result.usage.curve():
        if live > budget_before(time):
            report.add(
                "MT301",
                f"pool occupancy {live} bytes at t={time} exceeds the "
                f"{budget_before(time)}-byte budget then in force")
            break

    # Independent of the usage samples: reconstruct concurrent occupancy
    # from the per-job RUN intervals and sweep the boundaries.  At equal
    # timestamps interval ends sort before budget changes before starts,
    # so work ending exactly at a shrink vacates first and work starting
    # there is judged by the new budget.
    boundaries = []
    for event in result.timeline.of_kind(EventKind.RUN):
        boundaries.append((event.start, 2, event.nbytes))
        boundaries.append((event.end, 0, -event.nbytes))
    for when, budget in steps:
        boundaries.append((when, 1, budget))
    occupancy, budget, worst, worst_budget = 0, steps[0][1], 0, steps[0][1]
    for _time, kind, payload in sorted(boundaries):
        if kind == 1:
            budget = payload
            continue
        occupancy += payload
        if occupancy > budget and occupancy - budget > worst - worst_budget:
            worst, worst_budget = occupancy, budget
    if worst > worst_budget:
        report.add(
            "MT301",
            f"concurrent job footprints reach {worst} bytes, over the "
            f"{worst_budget}-byte budget then in force")

    for record in result.records:
        intervals = sorted((start, end) for start, end, _n in record.residency)
        for (s0, e0), (s1, _e1) in zip(intervals, intervals[1:]):
            if s1 < e0:
                report.add(
                    "MT302",
                    f"job {record.job.name} residency [{s1}, ...) starts "
                    f"before [{s0}, {e0}) ends")
        if record.state.value == "finished":
            if record.admit_time is None:
                report.add(
                    "MT304",
                    f"job {record.job.name} finished without admission")
            elif record.finish_time is not None \
                    and record.finish_time < record.admit_time:
                report.add(
                    "MT304",
                    f"job {record.job.name} finishes at "
                    f"{record.finish_time} before its admission at "
                    f"{record.admit_time}")
        elif record.state.value == "rejected" and record.residency \
                and record.evictions == 0:
            # An evicted-then-rejected job legitimately ran before its
            # eviction; only never-admitted rejects must have no
            # residency.
            report.add(
                "MT304",
                f"rejected job {record.job.name} has residency intervals")

    if result.final_pool_live_bytes:
        report.add(
            "MT303",
            f"{result.final_pool_live_bytes} bytes still live in the "
            f"shared pool after the last event")
    return report
