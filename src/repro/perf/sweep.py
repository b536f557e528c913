"""Parallel sweep executor: fan independent simulation points across processes.

A sweep is a list of :class:`SweepPoint` — each one simulation of a
(network, policy, algo, system) combination.  Points are independent, so
they fan out over a :class:`concurrent.futures.ProcessPoolExecutor`;
each worker's ``IterationResult`` comes back pickled, and the parent
stores it in its own result cache, under the key it looked the point up
by, and returns a copy of it.  Downstream serial code (figure tables,
admission ladders) then reads every point
as a cache hit, which is what makes parallel output **bit-identical**
to serial output: the same simulator produced the same bytes, only the
executing process differed.

``jobs <= 1`` degrades to a plain serial loop with no pickling at all.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from functools import partial
from typing import List, Optional, Sequence, Union

from .cache import cache_enabled, env_int, get_cache
from .fingerprint import fingerprint_point, lookup_key

#: Default worker count for parallel sweeps (1 = serial).
ENV_JOBS = "REPRO_JOBS"


@dataclass(frozen=True)
class SweepPoint:
    """One simulation point of a sweep.

    ``network`` is either a zoo key (with optional ``batch``) or an
    already-built :class:`~repro.graph.network.Network`; zoo keys are the
    cheap-to-pickle form preferred for cross-process sweeps.
    """

    network: Union[str, "object"]
    policy: str = "dyn"
    algo: str = "p"
    batch: Optional[int] = None
    system: Optional["object"] = None

    def __post_init__(self) -> None:
        from ..core.api import POINT_POLICIES, point_label

        point_label(self.policy, self.algo, POINT_POLICIES)

    def build_network(self):
        if isinstance(self.network, str):
            from ..zoo import build

            return build(self.network, self.batch)
        return self.network


def resolve_jobs(jobs: Optional[int] = None) -> int:
    """Worker count: explicit argument, else ``REPRO_JOBS``, else serial.

    Raises ``ValueError`` naming the variable when ``REPRO_JOBS`` is not
    an integer.
    """
    if jobs is None:
        jobs = env_int(ENV_JOBS, 1)
    return max(1, jobs)


def point_key(point: SweepPoint, keyer=lookup_key):
    """The cache key this point's result is stored under; with
    ``keyer=fingerprint_point``, its name on disk.

    The key :func:`repro.core.api.run_point` uses, which is the parity
    that lets a parallel warm-up serve later serial reads.
    """
    from ..core.api import point_key as label_key
    from ..hw.config import PAPER_SYSTEM

    return label_key(point.build_network(), point.system or PAPER_SYSTEM,
                     point.policy, point.algo, keyer)


def _simulate_point(point: SweepPoint):
    """Run one point through the (cache-aware) simulators; also the
    process-pool entry, whose result the pool pickles back."""
    from ..core.api import run_point
    from ..hw.config import PAPER_SYSTEM

    return run_point(point.build_network(), point.system or PAPER_SYSTEM,
                     point.policy, point.algo)


def sweep(
    points: Sequence[SweepPoint],
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
) -> List:
    """Simulate every point, fanning out across ``jobs`` processes.

    Results come back in point order.  With ``jobs > 1`` each worker's
    result is merged into the parent cache, so any subsequent serial
    evaluation of the same point is a cache hit.
    """
    points = list(points)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(points) <= 1:
        return [_simulate_point(p) for p in points]

    cache = get_cache() if cache_enabled(use_cache) else None
    # Points the parent cache already holds don't fan out at all.
    results: List = [None] * len(points)
    if cache is not None:
        addresses = [(point_key(point), partial(point_key, point,
                                                 fingerprint_point))
                     for point in points]
        results = [cache.get(key, name) for key, name in addresses]
    pending = [index for index, hit in enumerate(results) if hit is None]

    if pending:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            for index, result in zip(
                pending,
                pool.map(_simulate_point, [points[i] for i in pending]),
            ):
                if cache is not None:
                    key, name = addresses[index]
                    cache.put(key, result, name)
                    result = copy(result)
                results[index] = result
    return results
