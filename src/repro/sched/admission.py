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

A ladder is a function of the job's zoo recipe and the system alone, so
each (recipe, :class:`~repro.hw.config.SystemConfig`) ladder is one
entry in the process-wide perf cache (:mod:`repro.perf.cache`): every
controller, and so every ``schedule_jobs``/``schedule_fleet`` call in a
process, builds a recipe's network and runs its rungs once.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..core.api import POINT_POLICIES, point_label, run_point
from ..core.executor import IterationResult
from ..hw.config import PAPER_SYSTEM, SystemConfig
from ..perf.cache import cache_enabled, get_cache
from ..perf.fingerprint import fingerprint
from ..sim.stream import COMPUTE_STREAM, MEMORY_STREAM
from ..zoo import recipe
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
    (:func:`repro.core.api.run_point`), so a network whose ladder entry
    was evicted, or another network with the same content, reuses a
    single simulation per rung.  :class:`AdmissionController` calls this
    only when its recipe's ladder entry is missing.
    """
    return [_distill(rung, run_point(network, system, policy, algo))
            for rung, (policy, algo) in zip(LADDER, LADDER_POINTS)]


def _ladder_entry(job: Job,
                  system: SystemConfig) -> Tuple[List[RungEval], int]:
    """The job's ``(rungs, weight bytes)``, one perf-cache entry per
    (zoo recipe, system), built and simulated only on a miss.

    The entry stays in memory (LRU-bounded, reset by
    ``configure_cache()``, bypassed under ``REPRO_NO_CACHE``); it is
    never written to the disk tier, since a recipe names content only
    within one version of the zoo builders.
    """
    key = None
    if cache_enabled():
        key = fingerprint(
            ("ladder", recipe(job.network, job.batch_size), system))
        entry = get_cache().get(key)
        if entry is not None:
            return entry
    network = job.build_network()
    entry = (evaluate_ladder(network, system), network.total_weight_bytes())
    if key is not None:
        get_cache().put_blob(key, pickle.dumps(entry, pickle.HIGHEST_PROTOCOL),
                             write_disk=False)
    return entry


class AdmissionController:
    """Memoized degradation-ladder oracle for job admission.

    A (network, batch) pair's ladder and parameter size come from its
    process-wide perf-cache entry (:func:`_ladder_entry`), so a fresh
    controller on the same system builds nothing; within one controller
    they are kept per instance, so ``ladder(job) is ladder(job)``, and
    each ladder's smallest footprint is kept with it.
    """

    def __init__(self, system: Optional[SystemConfig] = None):
        self.system = system or PAPER_SYSTEM
        self._cache: Dict[Tuple[str, Optional[int]], List[RungEval]] = {}
        self._weight_bytes: Dict[Tuple[str, Optional[int]], int] = {}
        self._min_footprint: Dict[Tuple[str, Optional[int]], int] = {}

    def ladder(self, job: Job) -> List[RungEval]:
        """The job's rung evaluations, fastest first (memoized)."""
        key = (job.network, job.batch_size)
        rungs = self._cache.get(key)
        if rungs is None:
            rungs, self._weight_bytes[key] = _ladder_entry(job, self.system)
            self._cache[key] = rungs
            self._min_footprint[key] = min(r.footprint_bytes for r in rungs)
        return rungs

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
        floor = self._min_footprint.get((job.network, job.batch_size))
        if floor is None:
            # Not memoized when a subclass supplies its own ladders.
            floor = min(r.footprint_bytes for r in self.ladder(job))
        return floor

    def solo_service_seconds(self, job: Job, budget_bytes: int) -> float:
        """Uncontended run time at the rung an empty pool would admit.

        Used by shortest-job-first ordering; infinite when the job
        cannot fit the budget at any rung.
        """
        rung = self.cheapest_fit(job, budget_bytes)
        if rung is None:
            return float("inf")
        return rung.iter_seconds * job.iterations
