"""Fleet contention: traffic classes sharing a cluster's links.

The single-GPU scheduler's :class:`~repro.sched.contention.ContentionModel`
splits one PCIe link's bandwidth across co-resident tenants.  A cluster
has *many* links, and two traffic classes compete for them:

* **vDNN DMA** — each worker's offload/prefetch bytes per iteration
  (``RungEval.pcie_bytes``), routed over its ``dma_path``;
* **ring allreduce** — a data-parallel gang's gradient exchange: each
  directed ring hop moves ``2*(n-1)/n * weight_bytes`` per iteration,
  routed over the topology's peer path between consecutive gang members.

Per link, all bytes an entry routes over it are summed (intra-job
contention), and the link's bandwidth is split evenly across the
*entries* that touch it (inter-job contention) — the same fluid
approximation as the single-GPU model, applied per physical link.  An
entry's contended iteration time is then::

    max(solo iteration latency,
        compute demand x tenants sharing its busiest GPU,
        slowest link: dma_time(entry bytes on link) x link users)

On a PCIe-switch tree the gang's allreduce hops and every worker's DMA
meet on the same links, so the max is communication-bound — measurably
slower than n independent single-GPU runs.  NVLink topologies route the
allreduce over dedicated side links and keep a private host link per
GPU, recovering most of that gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..hw.interconnects import ClusterTopology
from ..sched.admission import RungEval


@dataclass(frozen=True)
class PlacedGang:
    """One admitted job's placement: which GPUs, at which ladder rung.

    ``weight_bytes`` is the *replica* weight footprint — the quantity a
    data-parallel gang ring-allreduces every iteration.  Single-GPU
    placements (``len(gpus) == 1``) generate no allreduce traffic.
    """

    name: str
    gpus: Tuple[int, ...]
    rung: RungEval
    weight_bytes: int = 0

    def __post_init__(self) -> None:
        if not self.gpus:
            raise ValueError("a placement needs at least one GPU")
        if len(set(self.gpus)) != len(self.gpus):
            raise ValueError("a gang cannot place two replicas on one GPU")
        if self.weight_bytes < 0:
            raise ValueError("weight_bytes cannot be negative")

    @property
    def ring_hop_bytes(self) -> int:
        """Bytes per directed ring edge per iteration (0 for solo jobs).

        Bandwidth-optimal ring allreduce moves ``2*(n-1)/n * W`` bytes
        through every directed edge of the gang's ring each iteration
        (reduce-scatter + all-gather, (n-1) chunks of ``W/n`` each way).
        """
        n = len(self.gpus)
        if n < 2:
            return 0
        return 2 * (n - 1) * self.weight_bytes // n


class FleetContention:
    """Splits every topology link's bandwidth across its users.

    Attributes:
        topology: the cluster's link/route model.
        timeslice_overhead: extra compute fraction per additional
            co-resident tenant on a GPU (same knob as the single-GPU
            :class:`~repro.sched.contention.ContentionModel`).
    """

    def __init__(self, topology: ClusterTopology,
                 timeslice_overhead: float = 0.0):
        if timeslice_overhead < 0:
            raise ValueError("timeslice_overhead cannot be negative")
        self.topology = topology
        self.timeslice_overhead = timeslice_overhead
        # (gpus, pcie_bytes, weight_bytes) -> ((link, dma seconds), ...):
        # what a placement routes is fixed from admission to release.
        self._placement_links: Dict[Tuple[Tuple[int, ...], int, int],
                                    Tuple[Tuple[int, float], ...]] = {}

    # ------------------------------------------------------------------
    def entry_link_bytes(self, entry: PlacedGang) -> Dict[int, int]:
        """Bytes per iteration ``entry`` routes over each link index.

        vDNN DMA contributes each worker's ``pcie_bytes`` along its host
        DMA path; a multi-GPU gang additionally contributes its ring-hop
        bytes along the peer route of every directed ring edge.
        """
        loads: Dict[int, int] = {}
        if entry.rung.pcie_bytes > 0:
            for gpu in entry.gpus:
                for link in self.topology.dma_path(gpu):
                    loads[link] = loads.get(link, 0) + entry.rung.pcie_bytes
        hop_bytes = entry.ring_hop_bytes
        if hop_bytes > 0:
            n = len(entry.gpus)
            for i in range(n):
                a = entry.gpus[i]
                b = entry.gpus[(i + 1) % n]
                for link in self.topology.route(a, b):
                    loads[link] = loads.get(link, 0) + hop_bytes
        return loads

    def link_loads(self, entries: Sequence[PlacedGang]) -> Dict[int, int]:
        """Aggregate bytes per iteration over each link, all entries."""
        totals: Dict[int, int] = {}
        for entry in entries:
            for link, nbytes in self.entry_link_bytes(entry).items():
                totals[link] = totals.get(link, 0) + nbytes
        return totals

    def _link_times(
        self, entry: PlacedGang
    ) -> Tuple[Tuple[int, float], ...]:
        """``(link, uncontended DMA seconds)`` of every link ``entry``
        routes over, in :meth:`entry_link_bytes` order; computed once
        per placement."""
        key = (entry.gpus, entry.rung.pcie_bytes, entry.weight_bytes)
        pairs = self._placement_links.get(key)
        if pairs is None:
            links = self.topology.links
            pairs = self._placement_links[key] = tuple(
                (link, links[link].dma_time(nbytes))
                for link, nbytes in self.entry_link_bytes(entry).items())
        return pairs

    def iteration_seconds(
        self, entries: Sequence[PlacedGang]
    ) -> List[float]:
        """Contended per-iteration time for each placed entry."""
        per_entry = [self._link_times(e) for e in entries]
        users: Dict[int, int] = {}
        tenants: Dict[int, int] = {}
        for entry in entries:
            for gpu in entry.gpus:
                tenants[gpu] = tenants.get(gpu, 0) + 1
        for pairs in per_entry:
            for link, _seconds in pairs:
                users[link] = users.get(link, 0) + 1
        contended = []
        for entry, pairs in zip(entries, per_entry):
            gang_tenants = max(tenants[gpu] for gpu in entry.gpus)
            overhead = 1.0 + self.timeslice_overhead * max(
                gang_tenants - 1, 0)
            compute = entry.rung.compute_seconds * gang_tenants * overhead
            link_time = 0.0
            for link, seconds in pairs:
                link_time = max(link_time, seconds * users[link])
            contended.append(
                max(entry.rung.iter_seconds, compute, link_time))
        return contended

    def slowdowns(self, entries: Sequence[PlacedGang]) -> List[float]:
        """Per-entry slowdown factor vs. running alone, uncontended."""
        return [
            contended / entry.rung.iter_seconds
            if entry.rung.iter_seconds > 0 else 1.0
            for entry, contended in zip(
                entries, self.iteration_seconds(entries))
        ]
