"""One function per paper figure: compute the data, render it as text.

These are the single source of truth for the benchmark harness: each
``figNN_*`` function returns a :class:`FigureResult` whose ``rows`` carry
the same series the paper's figure plots and whose ``text`` is a
paper-style rendering.  Benchmarks time these functions and print the
text; EXPERIMENTS.md records their outputs next to the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..core.algo_config import AlgoConfig
from ..core.api import compare_policies, evaluate, oracular_baseline
from ..core.executor import IterationResult
from ..graph.network import Network
from ..graph.tensor import gb, mb
from ..hw.config import PAPER_SYSTEM, SystemConfig
from ..profiler.bandwidth import dram_bandwidth_profile, worst_case_interference
from ..profiler.memory import (
    baseline_memory_profile,
    memory_breakdown,
    per_layer_profile,
)
from ..profiler.timing import layer_timing_profile
from ..sim.power import analyze_power
from ..zoo.registry import paper_conventional_networks, paper_very_deep_networks
from .tables import format_table, gb_str, mb_str, ms_str, pct_str


@dataclass
class FigureResult:
    """Computed data + rendering for one paper figure."""

    figure_id: str
    title: str
    headers: List[str]
    rows: List[List] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def text(self) -> str:
        body = format_table(self.headers, self.rows,
                            title=f"{self.figure_id}: {self.title}")
        if self.notes:
            body += "\n" + "\n".join(f"  note: {n}" for n in self.notes)
        return body

    def to_dict(self) -> dict:
        """JSON-serializable form (for machine-readable experiment logs)."""
        return {
            "figure_id": self.figure_id,
            "title": self.title,
            "headers": list(self.headers),
            "rows": [[str(cell) for cell in row] for row in self.rows],
            "notes": list(self.notes),
        }

    def save_json(self, path: str) -> None:
        """Write :meth:`to_dict` as a JSON file."""
        import json

        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2)


def _networks(networks: Optional[Sequence[Network]]) -> List[Network]:
    return list(networks) if networks is not None else paper_conventional_networks()


# ----------------------------------------------------------------------
def fig01_baseline_usage(
    networks: Optional[Sequence[Network]] = None,
    system: SystemConfig = PAPER_SYSTEM,
) -> FigureResult:
    """Figure 1: baseline allocation size vs. max layer-wise usage %."""
    result = FigureResult(
        "Figure 1", "Baseline network-wide memory allocation",
        ["network", "allocation", "max layer-wise usage", "usage %", "unused %"],
    )
    for network in _networks(networks):
        algos = AlgoConfig.performance_optimal(network)
        profile = baseline_memory_profile(network, algos)
        result.rows.append([
            network.name,
            mb_str(profile.allocation_bytes),
            mb_str(profile.max_layer_usage_bytes),
            pct_str(profile.max_usage_fraction),
            pct_str(profile.unused_fraction),
        ])
    result.notes.append(
        "paper: 53%-79% of the baseline allocation is never simultaneously live"
    )
    return result


def fig04_breakdown(
    networks: Optional[Sequence[Network]] = None,
) -> FigureResult:
    """Figure 4: memory usage by functionality + feature-map share."""
    result = FigureResult(
        "Figure 4", "GPU memory usage breakdown by functionality",
        ["network", "weights", "feature maps", "gradient maps",
         "workspace", "total", "feature maps %"],
    )
    for network in _networks(networks):
        algos = AlgoConfig.performance_optimal(network)
        b = memory_breakdown(network, algos)
        result.rows.append([
            network.name,
            mb_str(b["weights"]),
            mb_str(b["feature_maps"]),
            mb_str(b["gradient_maps"]),
            mb_str(b["workspace"]),
            mb_str(b["total"]),
            pct_str(b["feature_map_fraction"]),
        ])
    result.notes.append(
        "paper: the feature-map share grows monotonically with depth"
    )
    return result


def fig05_per_layer(network: Network) -> FigureResult:
    """Figure 5: per-layer memory usage of (by default) VGG-16 (256)."""
    algos = AlgoConfig.performance_optimal(network)
    result = FigureResult(
        "Figure 5", f"Per-layer memory usage of {network.name}",
        ["layer", "region", "feature maps", "workspace", "weights"],
    )
    for row in per_layer_profile(network, algos):
        result.rows.append([
            row.name, row.region,
            mb_str(row.feature_map_bytes),
            mb_str(row.workspace_bytes),
            mb_str(row.weight_bytes),
        ])
    result.notes.append(
        "paper: intermediate data dwarf weights in the feature-extraction "
        "layers; weights concentrate in the classifier"
    )
    return result


def fig06_reuse_distance(
    network: Network, system: SystemConfig = PAPER_SYSTEM
) -> FigureResult:
    """Figure 6: per-layer fwd/bwd latency and X reuse distance."""
    algos = AlgoConfig.performance_optimal(network)
    rows = layer_timing_profile(network, system, algos)
    result = FigureResult(
        "Figure 6", f"Per-layer latency and reuse distance of {network.name}",
        ["layer", "forward", "backward", "reuse distance"],
    )
    for row in rows:
        result.rows.append([
            row.name,
            ms_str(row.forward_seconds),
            ms_str(row.backward_seconds),
            ms_str(row.reuse_distance_seconds),
        ])
    if rows:
        result.notes.append(
            f"first-layer reuse distance: "
            f"{ms_str(rows[0].reuse_distance_seconds)} (paper: >1200 ms for "
            f"VGG-16 (64)'s first layer)"
        )
    return result


def fig09_timeline(
    network: Network, system: SystemConfig = PAPER_SYSTEM
) -> FigureResult:
    """Figure 9: offload/prefetch overlap on the two CUDA streams."""
    result_vdnn = evaluate(network, system, policy="all", algo="m")
    result = FigureResult(
        "Figure 9", f"Two-stream execution timeline of {network.name}",
        ["stream", "events"],
    )
    for stream in ("stream_compute", "stream_memory"):
        events = result_vdnn.timeline.on_stream(stream)
        result.rows.append([
            stream,
            " ".join(f"{e.kind.value}({e.label})@{e.start * 1e3:.1f}ms"
                     for e in events[:12]),
        ])
    result.notes.append(result_vdnn.timeline.render_ascii(width=100))
    return result


def _warm_policy_sweep(
    networks: Sequence[Network],
    system: SystemConfig,
    jobs: Optional[int],
    with_oracle: bool = False,
) -> None:
    """Pre-simulate every (network, config) point of a figure in parallel.

    With ``jobs > 1`` all points across all networks fan out at once —
    wider than per-network ``compare_policies(jobs=...)`` — and land in
    the content-addressed cache; the serial table assembly that follows
    then reads pure cache hits, so output is bit-identical to serial.
    """
    from ..core.api import SWEEP_COLUMNS
    from ..perf.cache import cache_enabled
    from ..perf.sweep import SweepPoint, resolve_jobs, sweep

    if resolve_jobs(jobs) <= 1 or not cache_enabled():
        return
    points = []
    for network in networks:
        points += [
            SweepPoint(network=network, policy=policy, algo=algo, system=system)
            for policy, algo in SWEEP_COLUMNS
        ]
        if with_oracle:
            points.append(SweepPoint(
                network=network, policy="base", algo="p",
                system=system.with_oracular_gpu()))
    sweep(points, jobs=jobs)


def fig11_memory_usage(
    networks: Optional[Sequence[Network]] = None,
    system: SystemConfig = PAPER_SYSTEM,
    jobs: Optional[int] = None,
) -> FigureResult:
    """Figure 11: avg & max memory usage per policy; savings vs. base.

    Untrainable configurations are marked ``*`` like the paper.
    ``jobs > 1`` simulates every (network, config) point concurrently.
    """
    result = FigureResult(
        "Figure 11", "Average and maximum GPU memory usage",
        ["network", "config", "avg", "max", "savings (avg)", "trainable"],
    )
    networks = _networks(networks)
    _warm_policy_sweep(networks, system, jobs)
    for network in networks:
        sweep = compare_policies(network, system)
        base = sweep["base(p)"]
        for key, r in sweep.items():
            savings = 1.0 - (r.managed_avg_bytes + (
                r.external_bytes if r.policy_label == "base" else 0
            )) / base.max_usage_bytes
            star = "" if r.trainable else "*"
            result.rows.append([
                network.name, key + star,
                mb_str(r.avg_usage_bytes), mb_str(r.max_usage_bytes),
                pct_str(max(savings, 0.0)) if key != "base(p)" else "-",
                "yes" if r.trainable else "NO",
            ])
    result.notes.append(
        "paper: vDNN_all(m) cuts avg usage 73%-98%; configurations marked "
        "* exceed the Titan X's 12 GB"
    )
    return result


def fig12_offload_size(
    networks: Optional[Sequence[Network]] = None,
    system: SystemConfig = PAPER_SYSTEM,
) -> FigureResult:
    """Figure 12: bytes offloaded to pinned host memory per iteration."""
    result = FigureResult(
        "Figure 12", "Offloaded feature-map traffic to host memory",
        ["network", "vDNN_all offload", "vDNN_conv offload",
         "pinned peak (all)"],
    )
    for network in _networks(networks):
        r_all = evaluate(network, system, policy="all", algo="m")
        r_conv = evaluate(network, system, policy="conv", algo="m")
        result.rows.append([
            network.name,
            mb_str(r_all.offload_bytes),
            mb_str(r_conv.offload_bytes),
            mb_str(r_all.pinned_peak_bytes),
        ])
    result.notes.append(
        "paper: up to 16 GB of GPU memory savings for VGG-16 (256)"
    )
    return result


def fig13_dram_bandwidth(
    network: Network, system: SystemConfig = PAPER_SYSTEM
) -> FigureResult:
    """Figure 13: per-layer achieved DRAM bandwidth, fwd and bwd."""
    algos = AlgoConfig.performance_optimal(network)
    peak = system.gpu.dram_bandwidth
    result = FigureResult(
        "Figure 13", f"DRAM bandwidth utilization of {network.name}",
        ["layer", "forward GB/s", "backward GB/s", "fwd util", "bwd util"],
    )
    for row in dram_bandwidth_profile(network, system, algos):
        result.rows.append([
            row.name,
            f"{row.forward_bandwidth / 1e9:,.1f}",
            f"{row.backward_bandwidth / 1e9:,.1f}",
            pct_str(row.forward_utilization(peak)),
            pct_str(row.backward_utilization(peak)),
        ])
    result.notes.append(
        f"worst-case vDNN interference bound: "
        f"{pct_str(worst_case_interference(system))} (paper: 4.7%)"
    )
    return result


def fig14_performance(
    networks: Optional[Sequence[Network]] = None,
    system: SystemConfig = PAPER_SYSTEM,
    jobs: Optional[int] = None,
) -> FigureResult:
    """Figure 14: throughput normalized to the (oracular) baseline.

    ``jobs > 1`` simulates every (network, config) point — including the
    oracular baselines — concurrently.
    """
    result = FigureResult(
        "Figure 14", "Performance normalized to the oracular baseline",
        ["network", "config", "fe time", "normalized perf"],
    )
    networks = _networks(networks)
    _warm_policy_sweep(networks, system, jobs, with_oracle=True)
    for network in networks:
        sweep = compare_policies(network, system)
        oracle = oracular_baseline(network, system)
        for key, r in sweep.items():
            star = "" if r.trainable else "*"
            normalized = (
                oracle.feature_extraction_time / r.feature_extraction_time
                if r.feature_extraction_time else 0.0
            )
            result.rows.append([
                network.name, key + star,
                ms_str(r.feature_extraction_time),
                f"{normalized:,.2f}",
            ])
    result.notes.append(
        "paper: static vDNN(m) loses 55%-58% on average; vDNN_dyn reaches "
        "97% of baseline (82% worst case, VGG-16 (256))"
    )
    return result


def fig15_very_deep(system: SystemConfig = PAPER_SYSTEM) -> FigureResult:
    """Figure 15: GPU/CPU allocation split for VGG-116..416 under dyn."""
    result = FigureResult(
        "Figure 15", "Very deep networks: memory placement under vDNN_dyn",
        ["network", "baseline alloc", "base trainable",
         "dyn GPU-side", "dyn CPU-side", "CPU share"],
    )
    for network in paper_very_deep_networks():
        base = evaluate(network, system, policy="base", algo="p")
        dyn = evaluate(network, system, policy="dyn")
        cpu = dyn.pinned_peak_bytes
        total = dyn.max_usage_bytes + cpu
        result.rows.append([
            network.name,
            gb_str(base.max_usage_bytes),
            "yes" if base.trainable else "NO",
            gb_str(dyn.max_usage_bytes),
            gb_str(cpu),
            pct_str(cpu / total if total else 0.0),
        ])
    result.notes.append(
        "paper: baseline grows 14x (4.9 GB to 67.1 GB); vDNN_dyn keeps the "
        "GPU side flat with 81%-92% of allocations resident in CPU memory"
    )
    return result


def power_section(
    networks: Optional[Sequence[Network]] = None,
    system: SystemConfig = PAPER_SYSTEM,
) -> FigureResult:
    """Section V-D: average/maximum GPU power, vDNN_dyn vs. baseline."""
    result = FigureResult(
        "Section V-D", "GPU power consumption (model)",
        ["network", "base avg W", "base max W", "dyn avg W", "dyn max W",
         "dyn max ovh", "conv(p) max ovh"],
    )
    for network in _networks(networks):
        base = oracular_baseline(network, system)
        dyn = evaluate(network, system, policy="dyn")
        conv = evaluate(network, system, policy="conv", algo="p")
        p_base = analyze_power(base.timeline, system.gpu)
        p_dyn = analyze_power(dyn.timeline, system.gpu)
        p_conv = analyze_power(conv.timeline, system.gpu)
        result.rows.append([
            network.name,
            f"{p_base.average_watts:,.0f}", f"{p_base.max_watts:,.0f}",
            f"{p_dyn.average_watts:,.0f}", f"{p_dyn.max_watts:,.0f}",
            pct_str(p_dyn.max_watts / p_base.max_watts - 1.0),
            pct_str(p_conv.max_watts / p_base.max_watts - 1.0),
        ])
    result.notes.append(
        "paper: vDNN_dyn adds 1%-7% maximum power, ~0% average power; the "
        "rise comes from offload/prefetch DMA traffic, so the conv(p) "
        "column (which always offloads) bounds it"
    )
    return result


def headline(
    system: SystemConfig = PAPER_SYSTEM,
    jobs: Optional[int] = None,
) -> FigureResult:
    """The abstract's headline numbers, recomputed.

    ``jobs > 1`` fans the underlying simulation points out across worker
    processes before the serial assembly below reads them as cache hits.
    """
    result = FigureResult(
        "Headline", "Abstract / Section V headline results",
        ["claim", "paper", "measured"],
    )
    specs = [("alexnet", 128, "89%"), ("overfeat", 128, "91%"),
             ("googlenet", 128, "95%")]
    from ..zoo.registry import build

    from ..perf.cache import cache_enabled
    from ..perf.sweep import SweepPoint, resolve_jobs, sweep as run_sweep

    if resolve_jobs(jobs) > 1 and cache_enabled():
        points = []
        for key, batch, _ in specs:
            points.append(SweepPoint(network=key, batch=batch, policy="base",
                                     algo="p", system=system))
            points.append(SweepPoint(network=key, batch=batch, policy="all",
                                     algo="m", system=system))
        points.append(SweepPoint(network="vgg16", batch=256, policy="base",
                                 algo="p", system=system))
        points.append(SweepPoint(network="vgg16", batch=256, policy="dyn",
                                 system=system))
        points.append(SweepPoint(network="vgg16", batch=256, policy="base",
                                 algo="p", system=system.with_oracular_gpu()))
        run_sweep(points, jobs=jobs)

    for key, batch, paper_value in specs:
        network = build(key, batch)
        base = evaluate(network, system, policy="base", algo="p")
        vdnn = evaluate(network, system, policy="all", algo="m")
        savings = 1.0 - vdnn.managed_avg_bytes / base.max_usage_bytes
        result.rows.append([
            f"{network.name} avg memory reduction", paper_value,
            pct_str(savings),
        ])
    vgg = build("vgg16", 256)
    base = evaluate(vgg, system, policy="base", algo="p")
    dyn = evaluate(vgg, system, policy="dyn")
    oracle = oracular_baseline(vgg, system)
    result.rows.append([
        "VGG-16 (256) trainable on 12 GB under vDNN", "yes",
        "yes" if dyn.trainable else "NO",
    ])
    result.rows.append([
        "VGG-16 (256) baseline needs", "28 GB", gb_str(base.max_usage_bytes),
    ])
    result.rows.append([
        "VGG-16 (256) perf loss vs oracular baseline", "18%",
        pct_str(max(1.0 - oracle.feature_extraction_time /
                    dyn.feature_extraction_time, 0.0)),
    ])
    return result
