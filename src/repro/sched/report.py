"""Render a schedule's per-job and fleet metrics as reporting tables."""

from __future__ import annotations

from typing import List

from ..reporting.tables import format_table, gb_str, mb_str
from .job import JobRecord, JobState
from .scheduler import ScheduleResult


def _seconds(value) -> str:
    return f"{value:,.3f} s" if value is not None else "-"


def _rejections(records: List[JobRecord]) -> List[str]:
    """A report's "Rejections:" footer, or nothing if none failed."""
    failures = [
        f"  {r.job.name}: {r.failure}"
        for r in records
        if r.state is JobState.REJECTED and r.failure
    ]
    return ["", "Rejections:"] + failures if failures else []


def job_table(result: ScheduleResult) -> str:
    """One row per submitted job: rung, memory, queueing delay, JCT."""
    rows = []
    for record in result.records:
        slowdown = record.slowdown
        rows.append([
            record.job.name,
            f"{record.job.network}"
            + (f"/{record.job.batch_size}" if record.job.batch_size else ""),
            record.job.iterations,
            record.state.value,
            record.rung or "-",
            gb_str(record.footprint_bytes) if record.footprint_bytes else "-",
            _seconds(record.queueing_delay),
            _seconds(record.completion_time),
            f"{slowdown:.2f}x" if slowdown is not None else "-",
        ])
    return format_table(
        ["job", "network", "iters", "state", "rung", "footprint",
         "queue delay", "JCT", "slowdown"],
        rows,
        title=f"Schedule ({result.policy}) on "
              f"{gb_str(result.budget_bytes)} budget",
    )


def fleet_table(result: ScheduleResult) -> str:
    """Aggregate fleet metrics for one schedule."""
    rows = [
        ["jobs finished / rejected",
         f"{len(result.finished)} / {len(result.rejected)}"],
        ["makespan", _seconds(result.makespan)],
        ["aggregate throughput",
         f"{result.aggregate_throughput:,.2f} iters/s"],
        ["mean queueing delay", _seconds(result.mean_queueing_delay)],
        ["pool high-water",
         f"{gb_str(result.peak_pool_bytes)} of {gb_str(result.budget_bytes)}"],
        ["pool utilization (time-avg)",
         f"{result.pool_utilization * 100:,.1f}%"],
        ["PCIe offload+prefetch traffic", mb_str(result.pcie_total_bytes)],
    ]
    return format_table(["metric", "value"], rows, title="Fleet metrics")


def faults_table(result: ScheduleResult) -> str:
    """Injected scheduler faults and how each one resolved."""
    report = result.fault_report
    rows = [[e.kind, f"{e.time:g}", e.target, e.outcome, e.detail]
            for e in report.events]
    if not rows:
        rows = [["-", "-", "-", "-", "no faults injected"]]
    return format_table(
        ["fault", "t", "target", "outcome", "detail"], rows,
        title=f"Faults (spec {report.spec.label}): "
              f"{report.recovery_rate:.0%} recovered",
    )


def schedule_report(result: ScheduleResult) -> str:
    """Full plain-text report: per-job table + fleet metrics."""
    parts = [job_table(result), "", fleet_table(result)]
    if result.fault_report is not None:
        parts += ["", faults_table(result)]
    return "\n".join(parts + _rejections(result.records))
