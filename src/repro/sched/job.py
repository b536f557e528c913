"""Job abstraction for the multi-tenant scheduler.

A :class:`Job` is one tenant's training request: which network, at what
batch size, for how many iterations, with what priority/deadline.  The
scheduler turns each submitted job into a :class:`JobRecord` that tracks
its lifecycle — queued, admitted (with the degradation-ladder rung the
admission controller picked), running under contention, finished or
rejected — plus the timing facts every fleet metric derives from.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

from ..graph.network import Network
from ..zoo import available, build


class JobState(enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    FINISHED = "finished"
    REJECTED = "rejected"


@dataclass(frozen=True)
class Job:
    """One tenant's training request.

    Attributes:
        name: unique display name (defaults to ``<network>#<n>`` when
            parsed from a CLI spec).
        network: zoo key of the DNN to train (``repro.zoo.available()``).
        batch_size: per-iteration batch (``None`` = the zoo default).
        iterations: how many training iterations the job runs.
        priority: larger = more important; breaks ties in every policy.
        deadline: optional completion deadline in seconds after submit.
        submit_time: when the job enters the queue (simulated seconds).
    """

    name: str
    network: str
    batch_size: Optional[int] = None
    iterations: int = 100
    priority: int = 0
    deadline: Optional[float] = None
    submit_time: float = 0.0

    def __post_init__(self) -> None:
        if self.batch_size is not None and self.batch_size <= 0:
            raise ValueError(
                f"batch_size must be positive, got {self.batch_size}"
            )
        if self.iterations <= 0:
            raise ValueError("a job must run at least one iteration")
        if not math.isfinite(self.submit_time):
            raise ValueError(
                f"submit_time must be finite, got {self.submit_time}")
        if self.submit_time < 0:
            raise ValueError("submit_time cannot be negative")
        if self.deadline is not None and not math.isfinite(self.deadline):
            raise ValueError(
                f"deadline must be finite, got {self.deadline}")

    def build_network(self) -> Network:
        """Materialize the job's network from the zoo."""
        return build(self.network, self.batch_size)

    @classmethod
    def parse(cls, spec: str, index: int = 0) -> "Job":
        """Parse a CLI job spec: ``network[:batch[:iterations]]``.

        Examples: ``vgg16``, ``vgg16:64``, ``vgg16:64:200``.
        """
        parts = spec.strip().split(":")
        if not parts[0]:
            raise ValueError(f"empty network name in job spec {spec!r}")
        network = parts[0]
        if network not in available():
            raise ValueError(
                f"unknown network {network!r} in job spec {spec!r};"
                f" available: {', '.join(available())}"
            )
        try:
            batch = int(parts[1]) if len(parts) > 1 and parts[1] else None
            iterations = int(parts[2]) if len(parts) > 2 and parts[2] else 100
        except ValueError:
            raise ValueError(
                f"batch and iterations must be integers in {spec!r}"
                " (network[:batch[:iterations]])"
            ) from None
        return cls(
            name=f"{network}#{index}",
            network=network,
            batch_size=batch,
            iterations=iterations,
        )


@dataclass
class JobRecord:
    """Mutable lifecycle record the scheduler keeps per submitted job."""

    job: Job
    state: JobState = JobState.PENDING
    rung: Optional[str] = None            # degradation-ladder label
    footprint_bytes: int = 0              # bytes reserved in the shared pool
    solo_iter_seconds: float = 0.0        # uncontended iteration time
    pcie_bytes_per_iter: int = 0          # offload+prefetch traffic / iter
    admit_time: Optional[float] = None
    finish_time: Optional[float] = None
    iterations_done: float = 0.0
    failure: Optional[str] = None
    #: (start, end, concurrently resident jobs) residency intervals,
    #: recorded so slowdown vs. solo execution is reconstructable.
    residency: list = field(default_factory=list)
    #: How many times the job was evicted mid-run (fault injection);
    #: each eviction re-queues the job for readmission.
    evictions: int = 0
    #: When the job last re-entered the queue after an eviction.
    requeued_at: Optional[float] = None

    @property
    def queueing_delay(self) -> Optional[float]:
        """Seconds spent waiting for admission (None until admitted)."""
        if self.admit_time is None:
            return None
        return self.admit_time - self.job.submit_time

    @property
    def completion_time(self) -> Optional[float]:
        """Job completion time (JCT): submit -> finish.

        None unless the job actually FINISHED — a rejected record also
        carries a ``finish_time`` (the rejection instant), which must
        not masquerade as a completion.
        """
        if self.state is not JobState.FINISHED or self.finish_time is None:
            return None
        return self.finish_time - self.job.submit_time

    @property
    def service_time(self) -> Optional[float]:
        """Admission -> finish, i.e. JCT minus queueing delay."""
        if self.state is not JobState.FINISHED \
                or self.finish_time is None or self.admit_time is None:
            return None
        return self.finish_time - self.admit_time

    @property
    def slowdown(self) -> Optional[float]:
        """Contended service time over uncontended solo service time."""
        service = self.service_time
        if service is None or self.solo_iter_seconds <= 0:
            return None
        solo = self.solo_iter_seconds * self.job.iterations
        return service / solo if solo > 0 else None

    @property
    def deadline_met(self) -> Optional[bool]:
        """Whether the job finished before its deadline.

        None when there is no deadline (or the job is still in flight);
        False for a rejected job — work that never ran cannot have met
        anything, however generous its deadline.
        """
        if self.job.deadline is None:
            return None
        if self.state is JobState.REJECTED:
            return False
        if self.completion_time is None:
            return None
        return self.completion_time <= self.job.deadline
