"""Render cluster runs as reporting tables (CLI ``repro cluster``)."""

from __future__ import annotations

from typing import Sequence

from ..reporting.tables import format_table, gb_str, mb_str
from ..sched.report import _rejections, _seconds
from .dataparallel import ClusterIterationReport
from .fleet import ClusterResult


def topology_table(reports: Sequence[ClusterIterationReport]) -> str:
    """One row per topology: the allreduce/offload contention sweep."""
    rows = []
    for report in reports:
        rows.append([
            report.topology,
            f"{report.network}"
            + (f"/{report.batch_size}" if report.batch_size else ""),
            f"x{report.num_gpus}",
            report.rung,
            mb_str(report.allreduce_bytes),
            mb_str(report.offload_bytes),
            _seconds(report.solo_iter_seconds),
            _seconds(report.iter_seconds),
            f"{report.contention_slowdown:.2f}x",
            f"{report.scaling_efficiency * 100:,.1f}%",
        ])
    return format_table(
        ["topology", "network", "gang", "rung", "allreduce/hop",
         "offload/GPU", "solo iter", "cluster iter", "slowdown",
         "scaling eff"],
        rows,
        title="Data-parallel contention: ring allreduce vs. vDNN DMA",
    )


def cluster_job_table(result: ClusterResult) -> str:
    """One row per submitted job: gang, placement, rung, JCT."""
    rows = []
    for record in result.records:
        gpus = result.placements.get(record.job.name)
        slowdown = record.slowdown
        rows.append([
            record.job.name,
            f"{record.job.network}"
            + (f"/{record.job.batch_size}" if record.job.batch_size else ""),
            f"x{getattr(record.job, 'num_gpus', 1)}",
            record.state.value,
            record.rung or "-",
            "gpu[" + ",".join(str(g) for g in gpus) + "]"
            if gpus else "-",
            str(record.evictions) if record.evictions else "-",
            _seconds(record.queueing_delay),
            _seconds(record.completion_time),
            f"{slowdown:.2f}x" if slowdown is not None else "-",
        ])
    return format_table(
        ["job", "network", "gang", "state", "rung", "placement",
         "evict", "queue delay", "JCT", "slowdown"],
        rows,
        title=f"Cluster schedule ({result.placement}) on "
              f"{result.num_gpus}x {result.topology}",
    )


def cluster_fleet_table(result: ClusterResult) -> str:
    """Aggregate fleet metrics for one cluster run."""
    jcts = result.completion_times
    median = jcts[len(jcts) // 2] if jcts else None
    rows = [
        ["jobs finished / rejected",
         f"{len(result.finished)} / {len(result.rejected)}"],
        ["GPUs", f"{result.num_gpus} ({result.topology})"],
        ["per-GPU budget", gb_str(result.budget_bytes)],
        ["makespan", _seconds(result.makespan)],
        ["aggregate throughput",
         f"{result.aggregate_throughput:,.2f} iters/s"],
        ["fleet utilization",
         f"{result.fleet_utilization * 100:,.1f}%"],
        ["fairness (Jain over slowdowns)", f"{result.fairness:.3f}"],
        ["priority preemptions", str(result.preemptions)],
        ["median JCT", _seconds(median)],
        ["max JCT", _seconds(jcts[-1] if jcts else None)],
    ]
    return format_table(["metric", "value"], rows, title="Fleet metrics")


def cluster_report(result: ClusterResult) -> str:
    """Full plain-text report: per-job table + fleet metrics."""
    parts = [cluster_job_table(result), "", cluster_fleet_table(result)]
    return "\n".join(parts + _rejections(result.records))
