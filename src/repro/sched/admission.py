"""Admission control: pick each job's cheapest workable configuration.

vDNN's observation (Section I) is that virtualizing feature maps frees
most of a GPU's memory, so one device can host *many* jobs.  The
admission controller exploits that with a **degradation ladder** — the
configurations a job can run under, ordered fastest-first /
hungriest-first:

1. ``base(p)``   — network-wide allocation, performance-optimal
   algorithms: the fastest rung, paper Section IV-A's baseline.
2. ``conv(p)``   — vDNN_conv offloading, performance-optimal algorithms:
   CONV layers' long kernels hide their offload traffic (Section V-C).
3. ``all(m)``    — vDNN_all offloading, memory-optimal algorithms: the
   paper's memory floor for offloading (Figure 11's ``all(m)`` bars).
4. ``hybrid``    — offloading's companion lever: sqrt(L) gradient
   checkpointing (Chen et al., *Training Deep Nets with Sublinear
   Memory Cost*), which *drops* feature maps instead of moving them —
   the last rung, paying recompute kernels instead of PCIe traffic.

Each rung is a ``policy(algo)`` point that
:func:`repro.core.api.run_point` resolves and simulates once; the result
is distilled into the :class:`RungEval` the scheduler needs: pool
footprint, solo iteration time, and the compute/PCIe demands the
contention model splits across co-resident tenants.  A job is admitted
at the first rung whose footprint fits the shared pool's *remaining*
budget; a job whose final rung exceeds even the empty pool is rejected
outright.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.api import POINT_POLICIES, point_label, run_point
from ..core.executor import IterationResult
from ..hw.config import PAPER_SYSTEM, SystemConfig
from ..sim.stream import COMPUTE_STREAM, MEMORY_STREAM
from .job import Job

#: Ladder rungs as ``(policy, algo)`` points, fastest (most
#: memory-hungry) first.
LADDER_POINTS = (("base", "p"), ("conv", "p"), ("all", "m"), ("hybrid", "m"))
#: Ladder rung labels: ``base(p)``, ``conv(p)``, ``all(m)``, ``hybrid``.
LADDER = tuple(point_label(policy, algo, POINT_POLICIES)
               for policy, algo in LADDER_POINTS)


@dataclass(frozen=True)
class RungEval:
    """One degradation-ladder rung's measured cost for one job.

    ``compute_seconds``/``pcie_seconds`` are per-iteration busy times of
    the two streams; the contention model scales them by the number of
    tenants sharing each resource.  ``iter_seconds`` is the solo
    (uncontended) iteration latency, a lower bound under contention.
    """

    rung: str
    footprint_bytes: int
    iter_seconds: float
    compute_seconds: float
    pcie_seconds: float
    pcie_bytes: int

    def fits(self, free_bytes: int) -> bool:
        return self.footprint_bytes <= free_bytes


def _distill(rung: str, result: IterationResult) -> RungEval:
    busy = result.timeline.busy_times(COMPUTE_STREAM, MEMORY_STREAM)
    return RungEval(
        rung=rung,
        footprint_bytes=result.max_usage_bytes,
        iter_seconds=result.total_time,
        compute_seconds=busy[COMPUTE_STREAM],
        pcie_seconds=busy[MEMORY_STREAM],
        pcie_bytes=result.offload_bytes + result.prefetch_bytes,
    )


def evaluate_ladder(network, system: SystemConfig) -> List[RungEval]:
    """Run the four rung simulations for one network, ladder order.

    Each rung goes through the content-addressed simulation cache
    (:func:`repro.core.api.run_point`), so N co-tenant jobs training the
    same (network, batch) — and repeated scheduler runs over one
    workload — reuse a single simulation per rung.
    """
    return [_distill(rung, run_point(network, system, policy, algo))
            for rung, (policy, algo) in zip(LADDER, LADDER_POINTS)]


class AdmissionController:
    """Memoized degradation-ladder oracle for job admission.

    Each distinct (network, batch) pair is built and simulated once per
    rung; the scheduler then answers every admission question from the
    cached :class:`RungEval` list and parameter size.
    """

    def __init__(self, system: Optional[SystemConfig] = None):
        self.system = system or PAPER_SYSTEM
        self._cache: Dict[Tuple[str, Optional[int]], List[RungEval]] = {}
        self._weight_bytes: Dict[Tuple[str, Optional[int]], int] = {}

    def ladder(self, job: Job) -> List[RungEval]:
        """The job's rung evaluations, fastest first (memoized)."""
        key = (job.network, job.batch_size)
        if key not in self._cache:
            network = job.build_network()
            self._cache[key] = evaluate_ladder(network, self.system)
            self._weight_bytes[key] = network.total_weight_bytes()
        return self._cache[key]

    def weight_bytes(self, job: Job) -> int:
        """The job's parameter bytes, recorded when its ladder was built
        (a subclass that supplies its own ladders builds the network once)."""
        key = (job.network, job.batch_size)
        if key not in self._weight_bytes:
            self._weight_bytes[key] = job.build_network().total_weight_bytes()
        return self._weight_bytes[key]

    def cheapest_fit(self, job: Job, free_bytes: int) -> Optional[RungEval]:
        """Fastest rung whose footprint fits ``free_bytes`` (None = none)."""
        for rung in self.ladder(job):
            if rung.fits(free_bytes):
                return rung
        return None

    def min_footprint(self, job: Job) -> int:
        """The smallest footprint any rung achieves for this job."""
        return min(r.footprint_bytes for r in self.ladder(job))

    def solo_service_seconds(self, job: Job, budget_bytes: int) -> float:
        """Uncontended run time at the rung an empty pool would admit.

        Used by shortest-job-first ordering; infinite when the job
        cannot fit the budget at any rung.
        """
        rung = self.cheapest_fit(job, budget_bytes)
        if rung is None:
            return float("inf")
        return rung.iter_seconds * job.iterations
