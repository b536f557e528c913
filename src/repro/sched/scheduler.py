"""The multi-tenant GPU scheduler: admit, pack, and run N jobs.

One simulated GPU, one shared cnmem-style pool sized to the memory
budget, many tenants.  The scheduler is an event-driven fluid
simulation:

* **Admission.**  Submitted jobs wait in a queue kept in the configured
  :mod:`policy <repro.sched.policies>`'s order (each job's key is
  computed when it enters the queue and again when the budget shrinks),
  and at every event (submit or completion) the
  :class:`~repro.sched.admission.AdmissionController` picks each
  candidate's cheapest workable rung against the pool's *remaining*
  bytes.  An admitted job reserves its whole-rung footprint from the
  shared :class:`~repro.alloc.pool.PoolAllocator` — so the pool itself
  enforces that co-resident footprints never exceed the budget, and
  OOM is structurally impossible rather than merely checked.
* **Execution.**  Between events, every resident job progresses at the
  rate the :class:`~repro.sched.contention.ContentionModel` assigns it
  (compute time-sliced across tenants, PCIe bandwidth split across
  offloaders); the rates are recomputed only when the set of residents
  changes.  The next event is the earliest completion or arrival.
* **Accounting.**  Pool occupancy is sampled into a
  :class:`~repro.alloc.stats.UsageTracker` at every transition, and each
  residency interval is logged on a per-job ``job:<name>`` timeline lane
  (rendered one row per job by the Chrome-trace exporter).

The event loop itself lives in :class:`_FluidScheduler`, which the
cluster's :class:`~repro.cluster.fleet.FleetScheduler` runs as well: the
two schedulers differ only in capacity, queue order and contention.

:class:`ScheduleResult` carries per-job records (JCT, queueing delay,
chosen rung, slowdown) and fleet metrics (makespan, aggregate
throughput, memory high-water, PCIe traffic).
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, List, Optional, Sequence, Set,
                    Tuple, Union)

from ..alloc.pool import Allocation, PoolAllocator, fits_hole
from ..alloc.stats import UsageTracker
from ..faults import FaultEvent, FaultReport, FaultSpec
from ..hw.config import PAPER_SYSTEM, SystemConfig
from ..sim.timeline import EventKind, Timeline
from .admission import AdmissionController, RungEval
from .contention import ContentionModel
from .job import Job, JobRecord, JobState
from .policies import AdmissionPolicy, make_policy

if TYPE_CHECKING:
    from ..obs import Instrumentation

#: Iteration-count slack absorbing float progress arithmetic.
_EPSILON = 1e-9


@dataclass(eq=False)
class _Resident:
    """One admitted job holding capacity and making progress.

    ``gpus`` is where its replicas run (``(0,)`` on a single GPU),
    ``weight_bytes`` the replica weights a multi-GPU gang ring-allreduces
    and ``allocation`` its block of the single-GPU scheduler's pool.
    ``label`` is its RUN lane label up to the tenant count, set when it
    takes its capacity.  Two residents are equal only if they are the
    same object.
    """

    record: JobRecord
    rung: RungEval
    remaining_iterations: float
    gpus: Tuple[int, ...] = (0,)
    weight_bytes: int = 0
    allocation: Optional[Allocation] = None
    label: str = ""


#: One queued job: its order key, its queue sequence number, its record.
_Queued = Tuple[tuple, int, JobRecord]


class _JobQueue:
    """The jobs waiting for admission.

    Jobs not yet submitted wait behind a cursor in submit-time order;
    :meth:`arrive` moves the ones due into ``ready``, which holds
    :data:`_Queued` items sorted by ``(key, seq)``.  ``seq`` is the job's
    submission index, or a fresh one past every index when it is
    requeued, so jobs with equal keys keep the order in which they
    entered the queue.  A job's key is computed when it enters ``ready``
    and again only at :meth:`rekey`.
    """

    def __init__(self, records: Sequence[JobRecord],
                 key: Callable[[Job], tuple]):
        self._key = key
        self._later = sorted(enumerate(records),
                             key=lambda item: item[1].job.submit_time)
        self._cursor = 0
        self._next_seq = len(records)
        self.ready: List[_Queued] = []

    def __len__(self) -> int:
        return len(self.ready) + len(self._later) - self._cursor

    def next_arrival(self) -> Optional[float]:
        """The earliest submit time not yet arrived (None = none left)."""
        if self._cursor < len(self._later):
            return self._later[self._cursor][1].job.submit_time
        return None

    def arrive(self, clock: float) -> None:
        """Queue every job submitted by ``clock``."""
        later = self._later
        while self._cursor < len(later) \
                and later[self._cursor][1].job.submit_time <= clock:
            self._insert(*later[self._cursor])
            self._cursor += 1

    def requeue(self, record: JobRecord) -> None:
        """Queue an evicted job behind every job already queued."""
        self._insert(self._next_seq, record)
        self._next_seq += 1

    def take(self, item: _Queued) -> None:
        """Remove ``item`` (admitted or rejected) from ``ready``."""
        self.ready.remove(item)

    def rekey(self) -> None:
        """Recompute every queued key (the budget changed)."""
        self.ready = sorted((self._key(record.job), seq, record)
                            for _key, seq, record in self.ready)

    def _insert(self, seq: int, record: JobRecord) -> None:
        insort(self.ready, (self._key(record.job), seq, record))


class _RunResult:
    """Per-class views and fleet metrics every scheduler result derives
    from its ``records``."""

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


@dataclass
class ScheduleResult(_RunResult):
    """Everything one scheduler run produces."""

    policy: str
    budget_bytes: int
    records: List[JobRecord]
    timeline: Timeline
    usage: UsageTracker
    #: Pool bytes still reserved after the last event — the schedule
    #: sanitizer's leak check (MT303); 0 on a clean run.
    final_pool_live_bytes: int = 0
    #: Budget step function as (time, budget_bytes) — one entry at the
    #: start plus one per mid-run shrink.  The sanitizer checks pool
    #: occupancy against the budget *in force at that time*, not just
    #: the final value.
    budget_timeline: List[Tuple[float, int]] = field(default_factory=list)
    #: Audit trail of injected scheduler faults (None = perfect machine).
    fault_report: Optional[FaultReport] = None

    @property
    def evicted(self) -> List[JobRecord]:
        """Jobs evicted mid-run at least once (whatever their fate)."""
        return [r for r in self.records if r.evictions > 0]

    def budget_at(self, time: float) -> int:
        """The memory budget in force at ``time`` (step function)."""
        budget = self.budget_timeline[0][1] if self.budget_timeline \
            else self.budget_bytes
        for when, value in self.budget_timeline:
            if when <= time:
                budget = value
            else:
                break
        return budget

    # -- fleet metrics -------------------------------------------------
    @property
    def mean_queueing_delay(self) -> float:
        delays = [r.queueing_delay for r in self.records
                  if r.queueing_delay is not None]
        return sum(delays) / len(delays) if delays else 0.0

    @property
    def peak_pool_bytes(self) -> int:
        """Shared-pool memory high-water mark."""
        return self.usage.max_bytes

    @property
    def pool_utilization(self) -> float:
        """Time-weighted average pool occupancy over the budget."""
        if self.budget_bytes <= 0:
            return 0.0
        return self.usage.average_bytes / self.budget_bytes

    @property
    def pcie_total_bytes(self) -> int:
        """Offload+prefetch traffic the whole workload pushed over PCIe."""
        return sum(
            int(r.pcie_bytes_per_iter * r.job.iterations)
            for r in self.finished
        )


class _FluidScheduler:
    """The fluid event loop both schedulers run.

    The loop owns submission, admission bookkeeping, eviction, the
    timed-fault heap, progress and completion.  A subclass supplies the
    decisions that differ:

    * capacity — :meth:`_reserve`, which also sets the resident's RUN
      label, and :meth:`_release`;
    * queue order — :meth:`_order_key`, and :meth:`_try_admit`, which
      scans the queue and calls :meth:`_admit`;
    * contention — :meth:`_rates`, called only when ``_changes`` (bumped
      by every admission, eviction and completion) has moved;
    * accounting — :meth:`_account` and :meth:`_unfit`, the reason a
      job is rejected;
    * the start of a run — :meth:`_begin`, which returns the timed
      faults.

    ``_unplaceable`` names the queued jobs an admission scan found
    unplaceable.  Admissions only take capacity away, so such a job
    stays unplaceable until capacity comes back (:meth:`_vacate`, on a
    completion or an eviction) or the budget changes; both clear the
    set, and until then :meth:`_try_admit` skips the job instead of
    checking it again.
    """

    def __init__(self, controller: AdmissionController, contention,
                 obs: Optional[Instrumentation]):
        self.controller = controller
        self.contention = contention
        self.obs = obs
        self.timeline = Timeline()
        self.records: List[JobRecord] = []
        self._names: Set[str] = set()
        self._unplaceable: Set[str] = set()
        self._changes = 0

    # ------------------------------------------------------------------
    def submit(self, job: Job) -> JobRecord:
        """Enqueue one job; returns its lifecycle record."""
        if job.name in self._names:
            raise ValueError(f"duplicate job name {job.name!r}")
        self._names.add(job.name)
        record = JobRecord(job=job)
        self.records.append(record)
        return record

    def submit_all(self, jobs: Sequence[Job]) -> List[JobRecord]:
        return [self.submit(job) for job in jobs]

    # -- hooks ---------------------------------------------------------
    def _begin(self, clock: float) -> List[tuple]:
        """Start a run at ``clock``; returns the timed-fault heap of
        ``(time, seq, apply, payload)`` entries."""
        return []

    def _reserve(self, entry: _Resident, clock: float) -> None:
        raise NotImplementedError

    def _release(self, entry: _Resident, clock: float) -> None:
        raise NotImplementedError

    def _order_key(self, job: Job) -> tuple:
        raise NotImplementedError

    def _try_admit(self, clock: float, queue: _JobQueue,
                   resident: List[_Resident]) -> None:
        raise NotImplementedError

    def _rates(self, resident: List[_Resident]) -> List[float]:
        raise NotImplementedError

    def _account(self, entry: _Resident, seconds: float) -> None:
        """Charge ``seconds`` of progress to ``entry`` (default: nothing)."""

    def _unfit(self, record: JobRecord) -> str:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _vacate(self, entry: _Resident, clock: float) -> None:
        """Give ``entry``'s capacity back; every queued job may fit again."""
        self._release(entry, clock)
        self._unplaceable.clear()

    def _reject(self, record: JobRecord, clock: float) -> None:
        record.state = JobState.REJECTED
        record.failure = self._unfit(record)
        record.finish_time = clock
        if self.obs is not None:
            self.obs.job_event("rejected")

    def _admit(self, record: JobRecord, rung: RungEval, clock: float,
               resident: List[_Resident],
               gpus: Tuple[int, ...] = (0,)) -> None:
        entry = _Resident(
            record=record,
            rung=rung,
            remaining_iterations=float(record.job.iterations)
            - record.iterations_done,
            gpus=gpus,
            weight_bytes=self.controller.weight_bytes(record.job)
            if len(gpus) > 1 else 0,
        )
        self._reserve(entry, clock)
        record.state = JobState.RUNNING
        record.rung = rung.rung
        record.footprint_bytes = rung.footprint_bytes * len(gpus)
        record.solo_iter_seconds = rung.iter_seconds
        record.pcie_bytes_per_iter = rung.pcie_bytes * len(gpus)
        record.admit_time = clock
        # Readmission after an eviction resumes from where the job left
        # off and waits only since it re-entered the queue.
        ready_since = record.requeued_at if record.requeued_at is not None \
            else record.job.submit_time
        if clock > ready_since:
            self.timeline.append(
                f"job:{record.job.name}", EventKind.STALL,
                "requeued" if record.requeued_at is not None else "queued",
                ready_since, clock,
            )
        resident.append(entry)
        self._changes += 1
        if self.obs is not None:
            self.obs.job_admitted(max(clock - ready_since, 0.0), rung.rung)

    def _evict(self, entry: _Resident, clock: float, queue: _JobQueue,
               resident: List[_Resident], reason: str) -> None:
        """Evict a resident job, preserving its progress for readmission."""
        resident.remove(entry)
        self._changes += 1
        self._vacate(entry, clock)
        record = entry.record
        record.iterations_done = float(record.job.iterations) \
            - max(entry.remaining_iterations, 0.0)
        record.state = JobState.PENDING
        record.evictions += 1
        record.requeued_at = clock
        record.rung = None
        record.footprint_bytes = 0
        queue.requeue(record)
        self.timeline.append(
            f"job:{record.job.name}", EventKind.FAULT, reason, clock, clock,
        )
        if self.obs is not None:
            self.obs.job_event("evicted")

    def _log_run(self, entry: _Resident, start: float, end: float,
                 tenants: int) -> None:
        self.timeline.append(
            f"job:{entry.record.job.name}", EventKind.RUN,
            f"{entry.label}{tenants}", start, end,
            nbytes=entry.rung.footprint_bytes,
        )
        entry.record.residency.append((start, end, tenants))

    # ------------------------------------------------------------------
    def _simulate(self) -> None:
        """Run every pending job until it finishes or is rejected."""
        queue = _JobQueue(
            [r for r in self.records if r.state is JobState.PENDING],
            self._order_key)
        resident: List[_Resident] = []
        clock = queue.next_arrival()
        if clock is None:
            clock = 0.0
        fault_queue = self._begin(clock)

        last_snapshot = None
        rates_at = None  # ``_changes`` when ``rates`` was computed
        while queue or resident or fault_queue:
            while fault_queue and fault_queue[0][0] <= clock:
                _time, _seq, apply, payload = heapq.heappop(fault_queue)
                apply(payload, clock, queue, resident)

            # Every loop iteration must change *something* — otherwise
            # the event horizon has collapsed (e.g. float underflow in
            # the progress arithmetic) and we would spin forever.
            # ``_changes`` names the resident set.
            snapshot = (
                clock, len(queue), len(fault_queue), self._changes,
                [r.remaining_iterations for r in resident],
            )
            if snapshot == last_snapshot:
                raise RuntimeError(
                    f"scheduler made no progress at t={clock} with "
                    f"{len(resident)} resident / {len(queue)} pending "
                    f"job(s); aborting instead of spinning"
                )
            last_snapshot = snapshot

            queue.arrive(clock)
            self._try_admit(clock, queue, resident)
            next_arrival = queue.next_arrival()
            next_fault = fault_queue[0][0] if fault_queue else None

            if not resident:
                next_times = [t for t in (next_arrival, next_fault)
                              if t is not None]
                if next_times:
                    clock = max(clock, min(next_times))
                    continue
                # Nothing running, nothing admissible, nothing arriving:
                # the capacity is idle yet the head does not fit — only
                # possible transiently; reject the stragglers defensively.
                for item in sorted(queue.ready, key=lambda item: item[1]):
                    self._reject(item[2], clock)
                    queue.take(item)
                break

            # Fluid progress at contention-adjusted rates, which change
            # only with the resident set.  A zero-cost rung completes
            # instantly: zero its remaining work *before* the horizon
            # computation so the completion sweep below collects it this
            # iteration instead of spinning.
            if rates_at != self._changes:
                rates = self._rates(resident)
                rates_at = self._changes
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
            if next_fault is not None:
                horizon = min(horizon, next_fault)

            tenants = len(resident)
            for entry, iter_seconds in zip(resident, rates):
                if horizon > clock and iter_seconds > 0:
                    entry.remaining_iterations -= \
                        (horizon - clock) / iter_seconds
                    self._log_run(entry, clock, horizon, tenants)
                    self._account(entry, horizon - clock)
            # ``max`` keeps the clock when the horizon is NaN (a NaN
            # rate), so the guard above sees the stall.
            clock = max(clock, horizon)

            # Completion sweep.  ``finish <= clock`` also collects jobs
            # whose per-step progress underflowed (clock + tiny == clock)
            # so the loop cannot spin on unfinishable float arithmetic.
            for entry, finish in [
                (e, f) for e, f in zip(resident, finish_times)
                if e.remaining_iterations <= _EPSILON or f <= clock
            ]:
                resident.remove(entry)
                self._changes += 1
                self._vacate(entry, clock)
                record = entry.record
                record.state = JobState.FINISHED
                record.finish_time = clock
                record.iterations_done = float(record.job.iterations)
                if not record.residency:
                    # Zero-cost rung: it finished without accruing a RUN
                    # interval; log a zero-length one so the job's lane
                    # and residency accounting stay complete.
                    self._log_run(entry, clock, clock, tenants)
                if self.obs is not None:
                    self.obs.job_finished(
                        max(clock - record.job.submit_time, 0.0))

    def _close(self, result: _RunResult) -> None:
        """Report the makespan and one span per settled job to ``obs``."""
        if self.obs is None:
            return
        self.obs.sched_makespan(result.makespan)
        for record in result.records:
            if record.finish_time is None:
                continue
            self.obs.span(
                record.job.name, "jobs",
                record.job.submit_time,
                max(record.finish_time, record.job.submit_time),
                category="job", state=record.state.name.lower(),
                rung=record.rung or "", evictions=record.evictions)


class GPUScheduler(_FluidScheduler):
    """Packs concurrent training jobs onto one virtualized GPU."""

    def __init__(
        self,
        system: Optional[SystemConfig] = None,
        policy: Union[str, AdmissionPolicy] = "best_fit",
        budget_bytes: Optional[int] = None,
        controller: Optional[AdmissionController] = None,
        contention: Optional[ContentionModel] = None,
        faults: Optional[FaultSpec] = None,
        fault_seed: int = 0,
        obs: Optional[Instrumentation] = None,
    ):
        self.system = system or PAPER_SYSTEM
        if budget_bytes is None:
            budget_bytes = self.system.gpu.memory_bytes
        if budget_bytes <= 0:
            raise ValueError(f"budget_bytes must be positive, got {budget_bytes}")
        super().__init__(controller or AdmissionController(self.system),
                         contention or ContentionModel(), obs)
        self.budget_bytes = budget_bytes
        self.initial_budget_bytes = budget_bytes
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.pool = PoolAllocator(self.budget_bytes)
        self.usage = UsageTracker()
        self.faults = faults
        self.fault_report: Optional[FaultReport] = (
            FaultReport(spec=faults, seed=fault_seed)
            if faults is not None else None
        )
        self.budget_timeline: List[Tuple[float, int]] = []
        #: (record, FaultEvent) pairs whose outcome depends on the job's
        #: final fate, finalized at the end of :meth:`run`.
        self._eviction_events: List[Tuple[JobRecord, FaultEvent]] = []

    def _sample_pool(self) -> None:
        if self.obs is not None:
            self.obs.pool_sample(self.pool.live_bytes, self.budget_bytes,
                                 self.pool.fragmentation)

    # -- capacity, contention, labels ----------------------------------
    def _reserve(self, entry: _Resident, clock: float) -> None:
        entry.allocation = self.pool.alloc(
            entry.rung.footprint_bytes, tag=f"job[{entry.record.job.name}]"
        )
        entry.label = f"{entry.rung.rung} x"
        self.usage.record(clock, self.pool.live_bytes)
        self._sample_pool()

    def _release(self, entry: _Resident, clock: float) -> None:
        self.pool.free(entry.allocation)
        self.usage.record(clock, self.pool.live_bytes)
        self._sample_pool()

    def _rates(self, resident: List[_Resident]) -> List[float]:
        return self.contention.iteration_seconds([r.rung for r in resident])

    def _unfit(self, record: JobRecord) -> str:
        return (f"smallest rung needs "
                f"{self.controller.min_footprint(record.job)}"
                f" bytes > budget {self.budget_bytes} bytes")

    # -- queue order ---------------------------------------------------
    def _order_key(self, job: Job) -> tuple:
        return self.policy.key(job, self.controller, self.budget_bytes)

    def _cheapest_fit_now(self, job: Job,
                          largest_hole: int) -> Optional[RungEval]:
        """Fastest rung whose footprint fits a contiguous pool hole.

        ``largest_hole`` is the pool's largest free extent, as
        :meth:`PoolAllocator.can_fit` reads it, so fragmentation is
        honoured — the pool may hold enough free bytes in total while no
        single extent fits the rung.
        """
        for rung in self.controller.ladder(job):
            if fits_hole(rung.footprint_bytes, largest_hole):
                return rung
        return None

    def _try_admit(self, clock: float, queue: _JobQueue,
                   resident: List[_Resident]) -> None:
        """Admit every job the policy allows at the current instant.

        One pass in queue order.  The order depends only on the jobs
        and the budget, which no admission changes, and an admission
        only shrinks the pool's holes: a job passed over earlier in the
        pass still does not fit, so the pass goes on to the next job.
        A job whose smallest rung does not fit the largest hole is
        passed over before its ladder is walked.
        """
        largest_hole = self.pool.largest_free_block
        for item in list(queue.ready):
            record = item[2]
            job = record.job
            if job.name not in self._unplaceable:
                floor = self.controller.min_footprint(job)
                if fits_hole(floor, largest_hole):
                    self._admit(record,
                                self._cheapest_fit_now(job, largest_hole),
                                clock, resident)
                    queue.take(item)
                    largest_hole = self.pool.largest_free_block
                    continue
                if floor > self.budget_bytes:
                    # Can never run on this GPU, at any rung: reject
                    # instead of blocking the queue forever.
                    self._reject(record, clock)
                    queue.take(item)
                    continue
                self._unplaceable.add(job.name)
            if self.policy.blocking:
                return

    # ------------------------------------------------------------------
    # Fault reactions: eviction and mid-run budget shrink
    # ------------------------------------------------------------------
    def _begin(self, clock: float) -> List[tuple]:
        self.usage.record(clock, self.pool.live_bytes)
        self.budget_timeline = [(clock, self.budget_bytes)]
        if self.faults is None:
            return []
        # Timed faults as a min-heap on (time, seq): seq preserves the
        # old stable-sort order (shrinks before evictions at equal
        # timestamps) while replacing the sorted list's O(n) pop(0)
        # drain with O(log n) heappops.
        events = [(t, self._apply_shrink, f)
                  for t, f in self.faults.budget_shrinks]
        events += [(t, self._apply_eviction, n)
                   for t, n in self.faults.evictions]
        fault_queue = [(t, seq, apply, payload)
                       for seq, (t, apply, payload) in enumerate(events)]
        heapq.heapify(fault_queue)
        return fault_queue

    def _apply_eviction(self, name: str, clock: float, queue: _JobQueue,
                        resident: List[_Resident]) -> None:
        """Timed ``evict@t=name`` fault: kick the named resident job."""
        entry = next(
            (e for e in resident if e.record.job.name == name), None)
        if entry is None:
            self.fault_report.add(FaultEvent(
                kind="eviction", time=clock, target=name,
                outcome="recovered", detail="job not resident; no-op",
            ))
            if self.obs is not None:
                self.obs.fault_event("eviction", "recovered")
            return
        self._evict(entry, clock, queue, resident, reason="evicted")
        event = self.fault_report.add(FaultEvent(
            kind="eviction", time=clock, target=name,
            nbytes=entry.rung.footprint_bytes,
            detail=f"evicted after {entry.record.iterations_done:g} "
                   f"iterations; re-queued",
        ))
        self._eviction_events.append((entry.record, event))

    def _apply_shrink(self, factor: float, clock: float, queue: _JobQueue,
                      resident: List[_Resident]) -> None:
        """Timed ``shrink@t=factor`` fault: cut the budget mid-run.

        The new budget is ``factor`` x the *original* budget.  Resident
        jobs whose footprints extend past the new boundary are evicted
        (highest offset first — they block the shrink) and re-queued;
        the admission ladder then readmits them at whatever rung still
        fits, degrading them gracefully instead of OOM-killing.
        """
        new_budget = int(self.initial_budget_bytes * factor)
        if new_budget >= self.budget_bytes:
            self.fault_report.add(FaultEvent(
                kind="budget-shrink", time=clock, target="pool",
                outcome="recovered", nbytes=new_budget,
                detail=f"budget already at or below "
                       f"{self.budget_bytes} bytes; no-op",
            ))
            if self.obs is not None:
                self.obs.fault_event("budget-shrink", "recovered")
            return
        victims = 0
        while True:
            blockers = self.pool.blockers_above(new_budget)
            if not blockers:
                break
            blocker = blockers[0]
            entry = next(
                e for e in resident if e.allocation is blocker)
            self._evict(entry, clock, queue, resident,
                        reason="evicted: budget shrink")
            event = self.fault_report.add(FaultEvent(
                kind="eviction", time=clock, target=entry.record.job.name,
                nbytes=blocker.size,
                detail="footprint extends past the shrunk budget; "
                       "re-queued for readmission",
            ))
            self._eviction_events.append((entry.record, event))
            victims += 1
        self.pool.shrink(new_budget)
        self.budget_bytes = new_budget
        # A waiting job may now be rejectable, and sjf's order moved.
        self._unplaceable.clear()
        queue.rekey()
        self.budget_timeline.append((clock, new_budget))
        self.timeline.append(
            "scheduler", EventKind.FAULT, f"budget-shrink x{factor:g}",
            clock, clock, nbytes=new_budget,
        )
        self.fault_report.add(FaultEvent(
            kind="budget-shrink", time=clock, target="pool",
            outcome="degraded" if victims else "recovered",
            nbytes=new_budget,
            detail=f"budget {self.initial_budget_bytes} -> {new_budget} "
                   f"bytes, {victims} job(s) evicted",
        ))
        if self.obs is not None:
            self.obs.fault_event(
                "budget-shrink", "degraded" if victims else "recovered")
            self._sample_pool()

    def _finalize_fault_outcomes(self) -> None:
        """Settle eviction outcomes now that every job's fate is known."""
        for record, event in self._eviction_events:
            if record.state is JobState.FINISHED:
                event.outcome = "recovered"
            elif record.state is JobState.REJECTED:
                event.outcome = "rejected"
            else:
                event.outcome = "fatal"
            if self.obs is not None:
                # Counted here, not at injection time, so the label
                # reflects the settled outcome.
                self.obs.fault_event(event.kind, event.outcome)

    # ------------------------------------------------------------------
    def run(self) -> ScheduleResult:
        """Run the fleet to completion and return the schedule."""
        self._simulate()
        self._finalize_fault_outcomes()
        result = ScheduleResult(
            policy=self.policy.name,
            budget_bytes=self.budget_bytes,
            records=list(self.records),
            timeline=self.timeline,
            usage=self.usage,
            final_pool_live_bytes=self.pool.live_bytes,
            budget_timeline=list(self.budget_timeline),
            fault_report=self.fault_report,
        )
        self._close(result)
        return result


def schedule_jobs(
    jobs: List[Job],
    system: Optional[SystemConfig] = None,
    policy: Union[str, AdmissionPolicy] = "best_fit",
    budget_bytes: Optional[int] = None,
    controller: Optional[AdmissionController] = None,
    contention: Optional[ContentionModel] = None,
    faults: Optional[FaultSpec] = None,
    fault_seed: int = 0,
    obs: Optional[Instrumentation] = None,
) -> ScheduleResult:
    """Convenience: submit ``jobs`` to a fresh scheduler and run it."""
    scheduler = GPUScheduler(
        system=system, policy=policy, budget_bytes=budget_bytes,
        controller=controller, contention=contention,
        faults=faults, fault_seed=fault_seed, obs=obs,
    )
    scheduler.submit_all(jobs)
    return scheduler.run()
