"""Parallel sweep executor: fan independent simulation points across processes.

A sweep is a list of :class:`SweepPoint` — each one simulation of a
(network, policy, algo, system) combination.  Points are independent, so
they fan out over a :class:`concurrent.futures.ProcessPoolExecutor`;
each worker returns ``(cache key, pickled IterationResult)`` and the
parent merges the blobs into its own content-addressed cache before
unpickling the ordered result list.  Downstream serial code (figure
tables, admission ladders) then reads every point as a cache hit, which
is what makes parallel output **bit-identical** to serial output: the
same simulator produced the same bytes, only the executing process
differed.

``jobs <= 1`` degrades to a plain serial loop with no pickling round
trip at all.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from .cache import cache_enabled, env_int, get_cache

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


def point_key(point: SweepPoint) -> str:
    """The content-addressed cache key this point's result is stored under.

    Computed identically in workers and in the parent, which is the
    parity that lets a parallel warm-up serve later serial reads.
    """
    from ..core.api import point_key as label_key
    from ..hw.config import PAPER_SYSTEM

    return label_key(point.build_network(), point.system or PAPER_SYSTEM,
                     point.policy, point.algo)


def _simulate_point(point: SweepPoint):
    """Run one point through the (cache-aware) simulators."""
    from ..core.api import run_point
    from ..hw.config import PAPER_SYSTEM

    return run_point(point.build_network(), point.system or PAPER_SYSTEM,
                     point.policy, point.algo)


def _worker_run_point(point: SweepPoint) -> Tuple[str, bytes]:
    """Process-pool entry: simulate and ship the result back as bytes."""
    result = _simulate_point(point)
    return point_key(point), pickle.dumps(result, pickle.HIGHEST_PROTOCOL)


def sweep(
    points: Sequence[SweepPoint],
    jobs: Optional[int] = None,
    use_cache: Optional[bool] = None,
) -> List:
    """Simulate every point, fanning out across ``jobs`` processes.

    Results come back in point order.  With ``jobs > 1`` each worker's
    pickled result is merged into the parent cache, so any subsequent
    serial evaluation of the same point is a cache hit.
    """
    points = list(points)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(points) <= 1:
        return [_simulate_point(p) for p in points]

    cache = get_cache() if cache_enabled(use_cache) else None
    # Points the parent cache already holds don't fan out at all.
    results: List = [None] * len(points)
    pending: List[int] = []
    for index, point in enumerate(points):
        hit = cache.get(point_key(point)) if cache is not None else None
        if hit is not None:
            results[index] = hit
        else:
            pending.append(index)

    if pending:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(pending))) as pool:
            for index, (key, blob) in zip(
                pending,
                pool.map(_worker_run_point, [points[i] for i in pending]),
            ):
                if cache is not None:
                    cache.put_blob(key, blob)
                results[index] = pickle.loads(blob)
    return results
