"""The naive event loop and admission scans of both schedulers, as an oracle.

The production loop (``_FluidScheduler._simulate``) keeps the queued
jobs in a :class:`~repro.sched.scheduler._JobQueue`: arrivals come off a
cursor over submit-time-sorted jobs, and the arrived ones stay in policy
order with each key computed when the job enters the queue.  It calls
``_rates`` only when the resident set changed, and
``FleetContention.iteration_seconds`` updates its link and GPU counts by
the entries that joined or left.  Both ``_try_admit``s admit in one pass
per event, skip the queued jobs already found unplaceable since capacity
last grew, and turn a job away when its smallest rung does not fit.

This module keeps the naive versions of all of these:

* :func:`scanning_simulate` is the event loop over a plain ``pending``
  list: every event scans it for the next arrival and calls ``_rates``;
* :func:`rescanning_gpu_try_admit` and :func:`rescanning_fleet_try_admit`
  re-order the arrived jobs (through :data:`ORDERS`, each policy's sort
  written out) and restart the scan after every admission or rejection;
* :func:`walking_cheapest_fit_now` and :func:`walking_place_on` walk a
  job's whole ladder;
* :func:`counting_iteration_seconds` counts every resident's link and
  GPU uses from scratch at each call;
* :func:`reference` swaps them in with ``mock.patch.object`` for the
  length of a ``with`` block.

``test_admission_scan.py`` holds the production schedulers to these on
seeded synthetic workloads, with and without faults and preemption.
"""

from __future__ import annotations

import heapq
from contextlib import contextmanager
from typing import Dict, List
from unittest import mock

from repro.cluster.contention import FleetContention
from repro.cluster.fleet import FleetScheduler, _gang_size
from repro.sched.job import JobState
from repro.sched.scheduler import _EPSILON, GPUScheduler, _FluidScheduler

#: Each admission policy's queue order as a sort over the arrived jobs.
ORDERS = {
    "fifo": lambda pending, controller, budget_bytes: sorted(
        pending,
        key=lambda r: (r.job.submit_time, -r.job.priority),
    ),
    "sjf": lambda pending, controller, budget_bytes: sorted(
        pending,
        key=lambda r: (
            controller.solo_service_seconds(r.job, budget_bytes),
            -r.job.priority,
            r.job.submit_time,
        ),
    ),
    "best_fit": lambda pending, controller, budget_bytes: sorted(
        pending,
        key=lambda r: (
            -controller.min_footprint(r.job),
            -r.job.priority,
            r.job.submit_time,
        ),
    ),
}


class _PendingList(list):
    """The ``pending`` list, with the queue calls the fault and eviction
    paths make: a requeued job goes to the back, and a budget change
    needs nothing since every scan re-sorts."""

    requeue = list.append

    def rekey(self):
        pass


def scanning_simulate(self):
    """``_FluidScheduler._simulate`` over a plain pending list."""
    pending = _PendingList(
        r for r in self.records if r.state is JobState.PENDING)
    resident = []
    clock = min((r.job.submit_time for r in pending), default=0.0)
    fault_queue = self._begin(clock)

    last_snapshot = None
    while pending or resident or fault_queue:
        while fault_queue and fault_queue[0][0] <= clock:
            _time, _seq, apply, payload = heapq.heappop(fault_queue)
            apply(payload, clock, pending, resident)

        snapshot = (
            clock, len(pending), len(fault_queue),
            tuple((id(r), r.remaining_iterations) for r in resident),
        )
        if snapshot == last_snapshot:
            raise RuntimeError(
                f"scheduler made no progress at t={clock} with "
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
        next_fault = fault_queue[0][0] if fault_queue else None

        if not resident:
            next_times = [t for t in (next_arrival, next_fault)
                          if t is not None]
            if next_times:
                clock = max(clock, min(next_times))
                continue
            for record in list(pending):
                self._reject(record, clock)
                pending.remove(record)
            break

        rates = self._rates(resident)
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
        clock = horizon

        for entry, finish in [
            (e, f) for e, f in zip(resident, finish_times)
            if e.remaining_iterations <= _EPSILON or f <= clock
        ]:
            resident.remove(entry)
            self._vacate(entry, clock)
            record = entry.record
            record.state = JobState.FINISHED
            record.finish_time = clock
            record.iterations_done = float(record.job.iterations)
            if not record.residency:
                self._log_run(entry, clock, clock, tenants)
            if self.obs is not None:
                self.obs.job_finished(
                    max(clock - record.job.submit_time, 0.0))


def walking_cheapest_fit_now(self, job):
    """``GPUScheduler._cheapest_fit_now``: every rung, fastest first."""
    for rung in self.controller.ladder(job):
        if self.pool.can_fit(rung.footprint_bytes):
            return rung
    return None


def walking_place_on(self, job, free_bytes):
    """``FleetScheduler._place_on``: every rung, fastest first."""
    needed = _gang_size(job)
    if needed > self.topology.num_gpus:
        return None
    for rung in self.controller.ladder(job):
        if rung.footprint_bytes > self.budget_bytes:
            continue
        gpus = self.placement.choose(free_bytes, needed, rung.footprint_bytes)
        if gpus is not None:
            return rung, gpus
    return None


def rescanning_gpu_try_admit(self, clock, pending, resident):
    """``GPUScheduler._try_admit``: re-order and rescan after every change."""
    while True:
        queue = [r for r in pending if r.job.submit_time <= clock]
        if not queue:
            return
        admitted = False
        for record in ORDERS[self.policy.name](
                queue, self.controller, self.budget_bytes):
            rung = walking_cheapest_fit_now(self, record.job)
            if rung is None:
                if self.controller.min_footprint(record.job) \
                        > self.budget_bytes:
                    self._reject(record, clock)
                    pending.remove(record)
                    admitted = True
                    break
                if self.policy.blocking:
                    return
                continue
            self._admit(record, rung, clock, resident)
            pending.remove(record)
            admitted = True
            break
        if not admitted:
            return


def rescanning_fleet_try_admit(self, clock, pending, resident):
    """``FleetScheduler._try_admit``: re-sort and rescan after every change."""
    while True:
        queue = sorted(
            (r for r in pending if r.job.submit_time <= clock),
            key=lambda r: (-r.job.priority, r.job.submit_time, r.job.name),
        )
        if not queue:
            return
        admitted = False
        for record in queue:
            placed = self._place_on(record.job, self.free_bytes)
            if placed is None:
                if not self._min_footprint_fits_empty(record.job):
                    self._reject(record, clock)
                    pending.remove(record)
                    admitted = True
                    break
                if self.preemption and self._try_preempt(
                        record, clock, pending, resident):
                    placed = self._place_on(record.job, self.free_bytes)
                else:
                    continue
            rung, gpus = placed
            self._admit(record, rung, clock, resident, gpus)
            pending.remove(record)
            admitted = True
            break
        if not admitted:
            return


def counting_iteration_seconds(self, entries) -> List[float]:
    """``FleetContention.iteration_seconds``: every count from scratch."""
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


@contextmanager
def reference():
    """Run both schedulers with the naive loop, scans, fit checks and
    fleet contention counting."""
    with mock.patch.object(_FluidScheduler, "_simulate",
                           scanning_simulate), \
            mock.patch.object(GPUScheduler, "_try_admit",
                              rescanning_gpu_try_admit), \
            mock.patch.object(FleetScheduler, "_try_admit",
                              rescanning_fleet_try_admit), \
            mock.patch.object(FleetScheduler, "_place_on",
                              walking_place_on), \
            mock.patch.object(FleetContention, "iteration_seconds",
                              counting_iteration_seconds):
        yield
