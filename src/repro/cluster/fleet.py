"""The fleet scheduler: place N jobs across an M-GPU cluster.

Scales the single-GPU multi-tenant scheduler (:mod:`repro.sched`) to a
topology of virtualized GPUs:

* **Placement.**  Each pending job asks the admission ladder for its
  cheapest workable rung, then a placement policy picks GPUs for it:
  ``bin_pack`` fills the least-free fitting GPUs first (co-locating
  tenants, keeping whole GPUs free for wide gangs), ``spread`` picks
  the most-free GPUs (minimizing per-GPU contention).
* **Gang admission.**  A ``num_gpus > 1`` job is all-or-nothing: every
  replica must get a GPU with the rung's footprint free, or the job
  stays queued.  Replicas of one gang never share a GPU.
* **Preempt-and-migrate.**  A queued job that cannot place may evict
  strictly-lower-priority residents (lowest priority first).  Eviction
  reuses the single-GPU scheduler's ladder semantics: progress is
  preserved and the victim re-queues, typically re-placing on other
  GPUs — a migration — possibly at a cheaper rung.
* **Execution.**  Between events every resident entry progresses at the
  rate :class:`~repro.cluster.contention.FleetContention` assigns it,
  so a gang's ring-allreduce and its neighbours' vDNN offload/prefetch
  DMA contend per physical link of the topology.

The run is the single-GPU scheduler's fluid event loop
(:class:`~repro.sched.scheduler._FluidScheduler`) with per-GPU capacity,
placement and per-link contention plugged in: identical inputs (and an
identical arrival seed, see :func:`stagger_arrivals`) replay to the bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

from ..hw.interconnects import ClusterTopology, make_topology
from ..sched.admission import AdmissionController, RungEval
from ..sched.job import Job, JobRecord
from ..sched.scheduler import _FluidScheduler, _Resident, _RunResult
from ..sim.timeline import Timeline
from .contention import FleetContention, PlacedGang

if TYPE_CHECKING:
    from ..obs import Instrumentation


def _gang_size(job: Job) -> int:
    """GPUs the job needs: ClusterJob.num_gpus, 1 for a plain Job."""
    return getattr(job, "num_gpus", 1)


def stagger_arrivals(
    jobs: Sequence[Job], rate: float, seed: int = 0
) -> List[Job]:
    """Poisson arrivals: exponential inter-arrival gaps at ``rate``/s.

    Deterministic per seed (``random.Random(seed)``), so a cluster run
    replays exactly.  ``rate <= 0`` returns the jobs unchanged (all
    arrive at their declared ``submit_time``).
    """
    if rate <= 0:
        return list(jobs)
    rng = random.Random(seed)
    clock = 0.0
    staggered = []
    for job in jobs:
        clock += rng.expovariate(rate)
        staggered.append(replace(job, submit_time=clock))
    return staggered


# ----------------------------------------------------------------------
# Placement policies
# ----------------------------------------------------------------------
class PlacementPolicy:
    """Orders candidate GPUs for one placement decision."""

    name = "placement"

    def choose(
        self, free_bytes: Dict[int, int], needed: int, footprint: int
    ) -> Optional[Tuple[int, ...]]:
        """GPUs for a ``needed``-wide gang, or None if it cannot place.

        Chosen GPUs are returned in ascending index order so ring-edge
        peers sit close in the topology (same PCIe switch where
        possible).
        """
        fits = [gpu for gpu, free in free_bytes.items()
                if free >= footprint]
        if len(fits) < needed:
            return None
        ranked = sorted(fits, key=lambda gpu: self._key(free_bytes, gpu))
        return tuple(sorted(ranked[:needed]))

    def _key(self, free_bytes: Dict[int, int], gpu: int):
        raise NotImplementedError


class BinPackPlacement(PlacementPolicy):
    """Least-free fitting GPUs first: consolidate, keep GPUs whole."""

    name = "bin_pack"

    def _key(self, free_bytes: Dict[int, int], gpu: int):
        return (free_bytes[gpu], gpu)


class SpreadPlacement(PlacementPolicy):
    """Most-free GPUs first: minimize per-GPU tenant contention."""

    name = "spread"

    def _key(self, free_bytes: Dict[int, int], gpu: int):
        return (-free_bytes[gpu], gpu)


_PLACEMENTS = {
    BinPackPlacement.name: BinPackPlacement,
    SpreadPlacement.name: SpreadPlacement,
}


def make_placement(name: str) -> PlacementPolicy:
    """Instantiate a placement policy by registry key."""
    key = name.strip().lower()
    if key not in _PLACEMENTS:
        raise KeyError(
            f"unknown placement policy {name!r}; "
            f"available: {', '.join(sorted(_PLACEMENTS))}")
    return _PLACEMENTS[key]()


def available_placements() -> List[str]:
    return sorted(_PLACEMENTS)


# ----------------------------------------------------------------------
@dataclass
class ClusterResult(_RunResult):
    """Everything one fleet-scheduler run produces."""

    topology: str
    num_gpus: int
    placement: str
    budget_bytes: int             # per-GPU budget
    records: List[JobRecord]
    timeline: Timeline
    #: Final placement per job name (the gang's GPU indices); a migrated
    #: job shows where it last ran.
    placements: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    #: Priority preemptions performed (evict-and-migrate events).
    preemptions: int = 0
    #: Per-job GPU-seconds actually occupied: residency x gang width.
    gpu_seconds: Dict[str, float] = field(default_factory=dict)

    @property
    def fleet_utilization(self) -> float:
        """Occupied GPU-seconds over available GPU-seconds (0..1)."""
        span = self.makespan
        if span <= 0 or self.num_gpus < 1:
            return 0.0
        busy = sum(self.gpu_seconds.values())
        return min(busy / (span * self.num_gpus), 1.0)

    @property
    def fairness(self) -> float:
        """Jain's index over finished jobs' slowdowns (1.0 = equal).

        ``(sum x)^2 / (n * sum x^2)`` ranges from ``1/n`` (one job bears
        all the contention) to 1.0 (perfectly even slowdowns).
        """
        slowdowns = [r.slowdown for r in self.finished
                     if r.slowdown is not None]
        if not slowdowns:
            return 1.0
        total = sum(slowdowns)
        squares = sum(s * s for s in slowdowns)
        if squares <= 0:
            return 1.0
        return (total * total) / (len(slowdowns) * squares)

    @property
    def completion_times(self) -> List[float]:
        """Finished jobs' JCTs — the cluster-wide JCT distribution."""
        return sorted(
            r.completion_time for r in self.finished
            if r.completion_time is not None
        )


class FleetScheduler(_FluidScheduler):
    """Places and runs jobs across every GPU of a cluster topology.

    Runs the single-GPU scheduler's event loop; capacity is per-GPU
    free bytes, the queue is priority-ordered with placement and
    preemption, and contention is per physical link.
    """

    def __init__(
        self,
        topology: Union[str, ClusterTopology] = "pcie-switch",
        num_gpus: int = 4,
        placement: Union[str, PlacementPolicy] = "bin_pack",
        budget_bytes: Optional[int] = None,
        controller: Optional[AdmissionController] = None,
        contention: Optional[FleetContention] = None,
        preemption: bool = True,
        obs: Optional[Instrumentation] = None,
    ):
        if isinstance(topology, str):
            topology = make_topology(topology, num_gpus)
        self.topology = topology
        self.placement = make_placement(placement) \
            if isinstance(placement, str) else placement
        # One admission system for the whole fleet: the ladder varies
        # only with the *host link*, and every preset wires identical
        # host links, so a single memoized controller covers all GPUs.
        system = topology.system(0)
        if budget_bytes is None:
            budget_bytes = system.gpu.memory_bytes
        if budget_bytes <= 0:
            raise ValueError(
                f"budget_bytes must be positive, got {budget_bytes}")
        super().__init__(controller or AdmissionController(system),
                         contention or FleetContention(topology), obs)
        self.budget_bytes = budget_bytes
        self.preemption = preemption
        self.free_bytes: Dict[int, int] = {
            gpu: budget_bytes for gpu in range(topology.num_gpus)
        }
        self.placements: Dict[str, Tuple[int, ...]] = {}
        #: Each resident's placement as the contention model reads it,
        #: built once at admission rather than at every event.
        self._gangs: Dict[str, PlacedGang] = {}
        self.gpu_seconds: Dict[str, float] = {}
        self.preemptions = 0

    # -- capacity, contention, labels ----------------------------------
    def _reserve(self, entry: _Resident, clock: float) -> None:
        name = entry.record.job.name
        for gpu in entry.gpus:
            self.free_bytes[gpu] -= entry.rung.footprint_bytes
        self.placements[name] = entry.gpus
        self._gangs[name] = PlacedGang(
            name=name, gpus=entry.gpus, rung=entry.rung,
            weight_bytes=entry.weight_bytes)

    def _release(self, entry: _Resident, clock: float) -> None:
        for gpu in entry.gpus:
            self.free_bytes[gpu] += entry.rung.footprint_bytes
        del self._gangs[entry.record.job.name]

    def _rates(self, resident: List[_Resident]) -> List[float]:
        return self.contention.iteration_seconds(
            [self._gangs[e.record.job.name] for e in resident])

    def _run_label(self, entry: _Resident, tenants: int) -> str:
        gpus = ",".join(str(g) for g in entry.gpus)
        return f"{entry.rung.rung} @gpu[{gpus}] x{tenants}"

    def _account(self, entry: _Resident, seconds: float) -> None:
        name = entry.record.job.name
        self.gpu_seconds[name] = self.gpu_seconds.get(name, 0.0) \
            + seconds * len(entry.gpus)

    def _unfit(self, record: JobRecord) -> str:
        return (f"needs {_gang_size(record.job)} GPU(s) with "
                f"{self.controller.min_footprint(record.job)}"
                f" bytes free; cluster has "
                f"{self.topology.num_gpus} x {self.budget_bytes} bytes")

    # -- queue order ---------------------------------------------------
    def _place_on(
        self, job: Job, free_bytes: Dict[int, int]
    ) -> Optional[Tuple[RungEval, Tuple[int, ...]]]:
        """Cheapest rung + GPUs the placement policy grants against a
        free-bytes map (the live one, or a hypothetical one)."""
        needed = _gang_size(job)
        floor = self.controller.min_footprint(job)
        if sum(free >= floor for free in free_bytes.values()) < needed:
            return None  # not even the smallest rung places
        for rung in self.controller.ladder(job):
            if rung.footprint_bytes > self.budget_bytes:
                continue
            gpus = self.placement.choose(
                free_bytes, needed, rung.footprint_bytes)
            if gpus is not None:
                return rung, gpus
        return None

    def _min_footprint_fits_empty(self, job: Job) -> bool:
        return _gang_size(job) <= self.topology.num_gpus and \
            self.controller.min_footprint(job) <= self.budget_bytes

    def _try_preempt(self, record: JobRecord, clock: float,
                     pending: List[JobRecord],
                     resident: List[_Resident]) -> bool:
        """Evict lower-priority residents until ``record`` can place.

        Victims go lowest priority first (ties: least progress, so the
        cheapest work is redone).  The eviction set is planned against a
        *hypothetical* free map first and only committed if it actually
        makes the placement possible — evicting without a guaranteed
        placement would thrash victims in and out of residency forever.
        """
        victims = sorted(
            (e for e in resident
             if e.record.job.priority < record.job.priority),
            key=lambda e: (e.record.job.priority,
                           float(e.record.job.iterations)
                           - e.remaining_iterations),
        )
        hypothetical = dict(self.free_bytes)
        chosen: List[_Resident] = []
        for victim in victims:
            if self._place_on(record.job, hypothetical) is not None:
                break
            for gpu in victim.gpus:
                hypothetical[gpu] += victim.rung.footprint_bytes
            chosen.append(victim)
        if self._place_on(record.job, hypothetical) is None:
            return False
        for victim in chosen:
            self._evict(victim, clock, pending, resident,
                        reason="preempted")
        self.preemptions += len(chosen)
        return True

    def _try_admit(self, clock: float, pending: List[JobRecord],
                   resident: List[_Resident]) -> None:
        """Admit every job placeable at the current instant.

        Queue order is priority-desc then submit-order (FIFO within a
        priority class).  One pass admits in that order: an admission
        only takes free bytes away, and a resident it adds below a
        queued job's priority gives them back to that job's preemption
        plan, so a job passed over earlier still cannot place.  An
        admission that preempted residents freed capacity and re-queued
        its victims, so the scan starts over.
        """
        while True:
            queue = sorted(
                (r for r in pending if r.job.submit_time <= clock),
                key=lambda r: (-r.job.priority,
                               r.job.submit_time,
                               r.job.name),
            )
            for record in queue:
                job = record.job
                if job.name in self._unplaceable:
                    continue
                placed = self._place_on(job, self.free_bytes)
                preempted = False
                if placed is None:
                    if not self._min_footprint_fits_empty(job):
                        self._reject(record, clock)
                        pending.remove(record)
                        continue
                    if not (self.preemption and self._try_preempt(
                            record, clock, pending, resident)):
                        self._unplaceable.add(job.name)
                        continue
                    placed = self._place_on(job, self.free_bytes)
                    preempted = True
                rung, gpus = placed
                self._admit(record, rung, clock, resident, gpus)
                pending.remove(record)
                if preempted:
                    break
            else:
                return

    # ------------------------------------------------------------------
    def run(self) -> ClusterResult:
        """Run the fleet to completion and return the cluster schedule."""
        self._simulate()
        result = ClusterResult(
            topology=self.topology.name,
            num_gpus=self.topology.num_gpus,
            placement=self.placement.name,
            budget_bytes=self.budget_bytes,
            records=list(self.records),
            timeline=self.timeline,
            placements=dict(self.placements),
            preemptions=self.preemptions,
            gpu_seconds=dict(self.gpu_seconds),
        )
        self._close(result)
        if self.obs is not None:
            self.obs.fleet_summary(
                result.fleet_utilization, result.fairness,
                self.topology.num_gpus)
        return result


def schedule_fleet(
    jobs: Sequence[Job],
    topology: Union[str, ClusterTopology] = "pcie-switch",
    num_gpus: int = 4,
    placement: Union[str, PlacementPolicy] = "bin_pack",
    budget_bytes: Optional[int] = None,
    arrival_rate: float = 0.0,
    seed: int = 0,
    preemption: bool = True,
    obs: Optional[Instrumentation] = None,
) -> ClusterResult:
    """Convenience: stagger, submit, and run ``jobs`` on a fresh fleet."""
    scheduler = FleetScheduler(
        topology=topology, num_gpus=num_gpus, placement=placement,
        budget_bytes=budget_bytes, preemption=preemption, obs=obs,
    )
    scheduler.submit_all(stagger_arrivals(jobs, arrival_rate, seed))
    return scheduler.run()
