"""Pluggable admission-order policies for the job queue.

A policy decides *which pending job to consider next* and *whether a
non-fitting job blocks the jobs behind it*:

* ``fifo``     — strict arrival order with head-of-line blocking: if the
  oldest job does not fit the remaining pool, everything waits.  The
  honest baseline every cluster scheduler is measured against.
* ``sjf``      — shortest-job-first: arrival order replaced by estimated
  uncontended service time (still blocking on its head), minimizing
  mean job completion time for batch workloads.
* ``best_fit`` — memory-aware packing: scan *all* pending jobs,
  repeatedly admitting the fittable job with the largest minimal
  footprint (first-fit-decreasing, the classic bin-packing heuristic).
  Non-blocking — a job too big for the current gap never starves the
  jobs behind it.

Ties within every ordering break by descending priority, then arrival.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from .admission import AdmissionController
from .job import Job


class AdmissionPolicy:
    """Base: an ordering over pending jobs plus a blocking discipline.

    The order is :meth:`key`, smallest first; jobs with equal keys keep
    the order in which they entered the queue.  The scheduler computes a
    job's key when it enters the queue and again when the budget changes.
    """

    #: Registry key; subclasses override.
    name = "abstract"
    #: True = stop admitting at the first job that does not fit.
    blocking = True

    def key(self, job: Job, controller: AdmissionController,
            budget_bytes: int) -> tuple:
        raise NotImplementedError


class FIFOPolicy(AdmissionPolicy):
    """Arrival order, head-of-line blocking."""

    name = "fifo"
    blocking = True

    def key(self, job, controller, budget_bytes):
        return (job.submit_time, -job.priority)


class ShortestJobFirstPolicy(AdmissionPolicy):
    """Estimated-shortest service time first, blocking on its head."""

    name = "sjf"
    blocking = True

    def key(self, job, controller, budget_bytes):
        return (controller.solo_service_seconds(job, budget_bytes),
                -job.priority, job.submit_time)


class BestFitPolicy(AdmissionPolicy):
    """Memory-aware packing: largest fittable footprint first, no blocking."""

    name = "best_fit"
    blocking = False

    def key(self, job, controller, budget_bytes):
        return (-controller.min_footprint(job), -job.priority,
                job.submit_time)


_POLICIES: Dict[str, Callable[[], AdmissionPolicy]] = {
    FIFOPolicy.name: FIFOPolicy,
    ShortestJobFirstPolicy.name: ShortestJobFirstPolicy,
    BestFitPolicy.name: BestFitPolicy,
}


def available_policies() -> List[str]:
    """Registry keys accepted by :func:`make_policy`."""
    return sorted(_POLICIES)


def make_policy(name: str) -> AdmissionPolicy:
    """Instantiate a policy by registry key."""
    if name not in _POLICIES:
        raise KeyError(
            f"unknown admission policy {name!r}; "
            f"available: {available_policies()}"
        )
    return _POLICIES[name]()
