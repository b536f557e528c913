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

The run is a deterministic fluid event simulation: identical inputs
(and an identical arrival seed, see :func:`stagger_arrivals`) replay to
the bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..hw.interconnects import ClusterTopology, make_topology
from ..obs import Instrumentation
from ..sched.admission import AdmissionController, RungEval
from ..sched.job import Job, JobRecord, JobState
from ..sim.timeline import EventKind, Timeline
from .contention import FleetContention, PlacedGang

#: Iteration-count slack absorbing float progress arithmetic (same
#: constant as the single-GPU scheduler).
_EPSILON = 1e-9


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
class _FleetResident:
    """One placed job holding bytes on its gang's GPUs."""

    record: JobRecord
    rung: RungEval
    gpus: Tuple[int, ...]
    weight_bytes: int
    remaining_iterations: float

    def as_gang(self) -> PlacedGang:
        return PlacedGang(
            name=self.record.job.name,
            gpus=self.gpus,
            rung=self.rung,
            weight_bytes=self.weight_bytes if len(self.gpus) > 1 else 0,
        )


@dataclass
class ClusterResult:
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
    def finished(self) -> List[JobRecord]:
        return [r for r in self.records if r.state is JobState.FINISHED]

    @property
    def rejected(self) -> List[JobRecord]:
        return [r for r in self.records if r.state is JobState.REJECTED]

    @property
    def makespan(self) -> float:
        """First submit to last completion across finished jobs."""
        done = self.finished
        if not done:
            return 0.0
        start = min(r.job.submit_time for r in done)
        return max(r.finish_time for r in done) - start

    @property
    def aggregate_throughput(self) -> float:
        """Completed training iterations per second across the fleet."""
        span = self.makespan
        iters = sum(r.job.iterations for r in self.finished)
        return iters / span if span > 0 else 0.0

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


class FleetScheduler:
    """Places and runs jobs across every GPU of a cluster topology."""

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
        self.budget_bytes = budget_bytes
        self.controller = controller or AdmissionController(system)
        self.contention = contention or FleetContention(topology)
        self.preemption = preemption
        self.obs = obs
        self.timeline = Timeline()
        self.records: List[JobRecord] = []
        self.free_bytes: Dict[int, int] = {
            gpu: budget_bytes for gpu in range(topology.num_gpus)
        }
        self.placements: Dict[str, Tuple[int, ...]] = {}
        self.gpu_seconds: Dict[str, float] = {}
        self.preemptions = 0

    # ------------------------------------------------------------------
    def submit(self, job: Job) -> JobRecord:
        """Enqueue one job; returns its lifecycle record."""
        if any(r.job.name == job.name for r in self.records):
            raise ValueError(f"duplicate job name {job.name!r}")
        record = JobRecord(job=job)
        self.records.append(record)
        return record

    def submit_all(self, jobs: Sequence[Job]) -> List[JobRecord]:
        return [self.submit(job) for job in jobs]

    # ------------------------------------------------------------------
    def _reject(self, record: JobRecord, clock: float,
                reason: str) -> None:
        record.state = JobState.REJECTED
        record.failure = reason
        record.finish_time = clock
        if self.obs is not None:
            self.obs.job_event("rejected")

    def _admit(self, record: JobRecord, rung: RungEval,
               gpus: Tuple[int, ...], clock: float,
               resident: List[_FleetResident]) -> None:
        for gpu in gpus:
            self.free_bytes[gpu] -= rung.footprint_bytes
        record.state = JobState.RUNNING
        record.rung = rung.rung
        record.footprint_bytes = rung.footprint_bytes * len(gpus)
        record.solo_iter_seconds = rung.iter_seconds
        record.pcie_bytes_per_iter = rung.pcie_bytes * len(gpus)
        record.admit_time = clock
        ready_since = record.requeued_at if record.requeued_at is not None \
            else record.job.submit_time
        if clock > ready_since:
            self.timeline.record(
                f"job:{record.job.name}", EventKind.STALL,
                "requeued" if record.requeued_at is not None else "queued",
                ready_since, clock,
            )
        weight_bytes = 0
        if len(gpus) > 1:
            weight_bytes = self.controller.weight_bytes(record.job)
        resident.append(_FleetResident(
            record=record,
            rung=rung,
            gpus=gpus,
            weight_bytes=weight_bytes,
            remaining_iterations=float(record.job.iterations)
            - record.iterations_done,
        ))
        self.placements[record.job.name] = gpus
        if self.obs is not None:
            self.obs.job_admitted(max(clock - ready_since, 0.0), rung.rung)

    def _place(self, job: Job) -> Optional[Tuple[RungEval, Tuple[int, ...]]]:
        """Cheapest rung + GPUs the placement policy grants it now."""
        return self._place_on(job, self.free_bytes)

    def _place_on(
        self, job: Job, free_bytes: Dict[int, int]
    ) -> Optional[Tuple[RungEval, Tuple[int, ...]]]:
        """Placement decision against an arbitrary free-bytes map."""
        needed = _gang_size(job)
        if needed > self.topology.num_gpus:
            return None
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

    def _evict(self, entry: _FleetResident, clock: float,
               pending: List[JobRecord], resident: List[_FleetResident],
               reason: str) -> None:
        """Evict a resident entry, preserving progress for readmission."""
        resident.remove(entry)
        for gpu in entry.gpus:
            self.free_bytes[gpu] += entry.rung.footprint_bytes
        record = entry.record
        record.iterations_done = float(record.job.iterations) \
            - max(entry.remaining_iterations, 0.0)
        record.state = JobState.PENDING
        record.evictions += 1
        record.requeued_at = clock
        record.rung = None
        record.footprint_bytes = 0
        pending.append(record)
        self.timeline.record(
            f"job:{record.job.name}", EventKind.FAULT, reason, clock, clock,
        )
        if self.obs is not None:
            self.obs.job_event("evicted")

    def _try_preempt(self, record: JobRecord, clock: float,
                     pending: List[JobRecord],
                     resident: List[_FleetResident]) -> bool:
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
        chosen: List[_FleetResident] = []
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
                   resident: List[_FleetResident]) -> None:
        """Admit every job placeable at the current instant.

        Queue order is priority-desc then submit-order (FIFO within a
        priority class); after each admission the free map changed, so
        the scan restarts.
        """
        while True:
            queue = sorted(
                (r for r in pending if r.job.submit_time <= clock),
                key=lambda r: (-r.job.priority,
                               r.job.submit_time,
                               r.job.name),
            )
            if not queue:
                return
            admitted = False
            for record in queue:
                placed = self._place(record.job)
                if placed is None:
                    if not self._min_footprint_fits_empty(record.job):
                        self._reject(
                            record, clock,
                            f"needs {_gang_size(record.job)} GPU(s) with "
                            f"{self.controller.min_footprint(record.job)}"
                            f" bytes free; cluster has "
                            f"{self.topology.num_gpus} x "
                            f"{self.budget_bytes} bytes")
                        pending.remove(record)
                        admitted = True
                        break
                    if self.preemption and self._try_preempt(
                            record, clock, pending, resident):
                        placed = self._place(record.job)
                    else:
                        continue
                rung, gpus = placed
                self._admit(record, rung, gpus, clock, resident)
                pending.remove(record)
                admitted = True
                break
            if not admitted:
                return

    # ------------------------------------------------------------------
    def run(self) -> ClusterResult:
        """Run the fleet to completion and return the cluster schedule."""
        pending = [r for r in self.records if r.state is JobState.PENDING]
        resident: List[_FleetResident] = []
        clock = min((r.job.submit_time for r in pending), default=0.0)

        last_snapshot = None
        while pending or resident:
            snapshot = (
                clock, len(pending),
                tuple((id(r), r.remaining_iterations) for r in resident),
            )
            if snapshot == last_snapshot:
                raise RuntimeError(
                    f"fleet scheduler made no progress at t={clock} with "
                    f"{len(resident)} resident / {len(pending)} pending "
                    f"job(s); aborting instead of spinning"
                )
            last_snapshot = snapshot

            self._try_admit(clock, pending, resident)
            next_arrival = min(
                (r.job.submit_time for r in pending
                 if r.job.submit_time > clock),
                default=None,
            )

            if not resident:
                if next_arrival is not None:
                    clock = max(clock, next_arrival)
                    continue
                # Nothing running, nothing admissible, nothing arriving.
                for record in list(pending):
                    self._reject(record, clock,
                                 "unplaceable on an idle cluster")
                    pending.remove(record)
                break

            rates = self.contention.iteration_seconds(
                [r.as_gang() for r in resident]
            )
            for entry, iter_seconds in zip(resident, rates):
                if iter_seconds <= 0:
                    entry.remaining_iterations = 0.0
            finish_times = [
                clock + r.remaining_iterations * iter_seconds
                for r, iter_seconds in zip(resident, rates)
            ]
            horizon = min(finish_times)
            if next_arrival is not None:
                horizon = min(horizon, next_arrival)

            tenants = len(resident)
            for entry, iter_seconds in zip(resident, rates):
                if horizon > clock and iter_seconds > 0:
                    entry.remaining_iterations -= \
                        (horizon - clock) / iter_seconds
                    gpus = ",".join(str(g) for g in entry.gpus)
                    self.timeline.record(
                        f"job:{entry.record.job.name}", EventKind.RUN,
                        f"{entry.rung.rung} @gpu[{gpus}] x{tenants}",
                        clock, horizon,
                        nbytes=entry.rung.footprint_bytes,
                    )
                    entry.record.residency.append((clock, horizon, tenants))
                    name = entry.record.job.name
                    self.gpu_seconds[name] = self.gpu_seconds.get(name, 0.0) \
                        + (horizon - clock) * len(entry.gpus)
            clock = horizon

            for entry, finish in [
                (e, f) for e, f in zip(resident, finish_times)
                if e.remaining_iterations <= _EPSILON or f <= clock
            ]:
                resident.remove(entry)
                for gpu in entry.gpus:
                    self.free_bytes[gpu] += entry.rung.footprint_bytes
                entry.record.state = JobState.FINISHED
                entry.record.finish_time = clock
                entry.record.iterations_done = float(
                    entry.record.job.iterations
                )
                if not entry.record.residency:
                    entry.record.residency.append((clock, clock, tenants))
                if self.obs is not None:
                    self.obs.job_finished(
                        max(clock - entry.record.job.submit_time, 0.0))

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
        if self.obs is not None:
            self.obs.sched_makespan(result.makespan)
            self.obs.fleet_summary(
                result.fleet_utilization, result.fairness,
                self.topology.num_gpus)
            for record in result.records:
                if record.finish_time is None:
                    continue
                self.obs.span(
                    record.job.name, "jobs",
                    record.job.submit_time,
                    max(record.finish_time, record.job.submit_time),
                    category="job", state=record.state.name.lower(),
                    rung=record.rung or "", evictions=record.evictions)
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
