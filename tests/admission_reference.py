"""The rescanning admission scans of both schedulers, as an oracle.

``GPUScheduler._try_admit`` and ``FleetScheduler._try_admit`` admit in
one pass per event and skip the queued jobs already found unplaceable
since capacity last grew.  Before that, each restarted its scan from the
head of a freshly ordered queue after every admission or rejection and
checked every queued job again at every event.  The fit checks they
call now turn a job away when its smallest rung does not fit; before,
they walked its whole ladder.  This module keeps the old code:

* :func:`rescanning_gpu_try_admit` and :func:`rescanning_fleet_try_admit`
  are the old scans, :func:`walking_cheapest_fit_now` and
  :func:`walking_place_on` the old fit checks, verbatim but for their
  names;
* :func:`rescanning` swaps all four in with ``mock.patch.object`` for
  the length of a ``with`` block.

``test_admission_scan.py`` holds the production schedulers to these on
seeded synthetic workloads, with and without faults and preemption.
"""

from __future__ import annotations

from contextlib import contextmanager
from unittest import mock

from repro.cluster.fleet import FleetScheduler, _gang_size
from repro.sched.scheduler import GPUScheduler


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
        for record in self.policy.order(
                queue, self.controller, self.budget_bytes):
            rung = self._cheapest_fit_now(record.job)
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


@contextmanager
def rescanning():
    """Run both schedulers with their rescanning scans and ladder walks."""
    with mock.patch.object(GPUScheduler, "_try_admit",
                           rescanning_gpu_try_admit), \
            mock.patch.object(GPUScheduler, "_cheapest_fit_now",
                              walking_cheapest_fit_now), \
            mock.patch.object(FleetScheduler, "_try_admit",
                              rescanning_fleet_try_admit), \
            mock.patch.object(FleetScheduler, "_place_on",
                              walking_place_on):
        yield
