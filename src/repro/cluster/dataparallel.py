"""Single data-parallel job on a cluster topology: the acceptance lens.

This module answers the paper-scale question in isolation — before any
fleet scheduling: *how much does ring-allreduce traffic cost a gang of
vDNN workers on a given fabric?*  Each worker is the existing single-GPU
compiled-plan simulation (one ladder rung); the cluster layer adds the
shared-link contention of the gang's gradient exchange on top via
:class:`~repro.cluster.contention.FleetContention`.

``scaling_efficiency`` is the headline number: contended speedup over
``n`` independent single-GPU runs.  On a PCIe-switch tree the allreduce
and every worker's offload/prefetch DMA share the switch uplink, so
efficiency drops well below 1; an NVLink ring routes the allreduce over
dedicated side links and recovers most of it.

``worker_results`` regenerates each worker's schedule with tracing on so
the sanitizer (``repro verify``) can prove every per-worker schedule
race-free and memory-safe — cluster contention stretches the clock, it
never reorders a worker's compiled plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..analysis.diagnostics import Report
from ..core.api import resolve_point
from ..sched.admission import LADDER, LADDER_POINTS, evaluate_ladder
from ..zoo import build
from ..hw.interconnects import ClusterTopology
from .contention import FleetContention, PlacedGang


@dataclass(frozen=True)
class ClusterIterationReport:
    """One data-parallel job's per-iteration cost on one topology.

    All workers are identical replicas, so one contended iteration time
    covers the gang; ``link_loads`` maps link display names to bytes
    per iteration for the contention breakdown tables.
    """

    network: str
    batch_size: Optional[int]
    num_gpus: int
    topology: str
    rung: str
    weight_bytes: int
    allreduce_bytes: int          # per directed ring hop, per iteration
    offload_bytes: int            # per worker DMA traffic, per iteration
    solo_iter_seconds: float      # one uncontended single-GPU iteration
    iter_seconds: float           # contended, on this topology
    link_loads: Tuple[Tuple[str, int], ...]

    @property
    def contention_slowdown(self) -> float:
        """Contended iteration time over the solo lower bound (>= 1)."""
        if self.solo_iter_seconds <= 0:
            return 1.0
        return self.iter_seconds / self.solo_iter_seconds

    @property
    def scaling_efficiency(self) -> float:
        """Throughput vs. ``num_gpus`` independent single-GPU runs.

        Independent runs process ``n`` batches per solo iteration; the
        gang processes ``n`` batches per contended iteration, so the
        ratio is simply solo over contended time (1.0 = perfect).
        """
        if self.iter_seconds <= 0:
            return 1.0
        return self.solo_iter_seconds / self.iter_seconds


def _rung_index(label: str) -> int:
    if label not in LADDER:
        raise ValueError(
            f"unknown ladder rung {label!r}; available: {', '.join(LADDER)}")
    return LADDER.index(label)


def simulate_cluster_iteration(
    network: str,
    batch_size: Optional[int],
    num_gpus: int,
    topology: ClusterTopology,
    rung: str = "all(m)",
) -> ClusterIterationReport:
    """Contended iteration cost of one ``num_gpus``-way gang.

    The replica simulation goes through the content-addressed cache
    (via :func:`~repro.sched.admission.evaluate_ladder`), so sweeping
    one job across several topologies re-simulates nothing.
    """
    if num_gpus < 1:
        raise ValueError("a gang needs at least one GPU")
    if num_gpus > topology.num_gpus:
        raise ValueError(
            f"a {num_gpus}-GPU gang cannot place on a "
            f"{topology.num_gpus}-GPU {topology.name} topology")
    index = _rung_index(rung)
    replica = build(network, batch_size)
    chosen = evaluate_ladder(replica, topology.system(0))[index]
    gang = PlacedGang(
        name=f"{network}x{num_gpus}",
        gpus=tuple(range(num_gpus)),
        rung=chosen,
        weight_bytes=replica.total_weight_bytes(),
    )
    model = FleetContention(topology)
    iter_seconds = model.iteration_seconds([gang])[0]
    loads = model.entry_link_bytes(gang)
    return ClusterIterationReport(
        network=network,
        batch_size=batch_size,
        num_gpus=num_gpus,
        topology=topology.name,
        rung=chosen.rung,
        weight_bytes=replica.total_weight_bytes(),
        allreduce_bytes=gang.ring_hop_bytes,
        offload_bytes=chosen.pcie_bytes,
        solo_iter_seconds=chosen.iter_seconds,
        iter_seconds=iter_seconds,
        link_loads=tuple(
            (topology.link_names[link], loads[link])
            for link in sorted(loads)
        ),
    )


def worker_results(
    network: str,
    batch_size: Optional[int],
    num_gpus: int,
    topology: ClusterTopology,
    rung: str = "all(m)",
) -> List[Report]:
    """Sanitize every worker's schedule trace; one Report per worker.

    Each worker re-runs its rung's single-GPU simulation with
    ``verify=True`` against its *own* host link (heterogeneous fabrics
    give workers different local links).  The ``hybrid`` rung pays
    recompute kernels instead of PCIe traffic and its simulator records
    no schedule trace, so — like the verifier's "untrainable" case — it
    is reported as skipped rather than silently passed.
    """
    from ..analysis.verify import verify_result

    policy, algo = LADDER_POINTS[_rung_index(rung)]
    replica = build(network, batch_size)
    reports: List[Report] = []
    for gpu in range(num_gpus):
        subject = f"{network} {rung} worker{gpu}/{num_gpus}"
        if policy == "hybrid":
            reports.append(Report(
                subject=f"{subject} (no schedule trace, skipped)"))
            continue
        point = resolve_point(replica, topology.system(gpu), policy, algo)
        reports.append(verify_result(point.simulate(verify=True),
                                     network=replica, subject=subject))
    return reports


def topology_sweep(
    network: str,
    batch_size: Optional[int],
    num_gpus: int,
    rung: str = "all(m)",
    topologies: Optional[Dict[str, ClusterTopology]] = None,
) -> List[ClusterIterationReport]:
    """The same gang across every topology preset, preset order."""
    from ..hw.interconnects import TOPOLOGY_PRESETS
    if topologies is None:
        topologies = {
            name: factory(num_gpus)
            for name, factory in TOPOLOGY_PRESETS.items()
        }
    return [
        simulate_cluster_iteration(
            network, batch_size, num_gpus, topo, rung)
        for topo in topologies.values()
    ]
