"""Performance-regression gate for the sweep engine.

Times the three hot paths this repo optimizes and asserts their floors:

1. **evaluate warm vs cold** — a cache hit must replay a simulation at
   least 5x faster than simulating it;
2. **vDNN_dyn profiling** — planning again over the same network must
   run at least 2x faster once its compiled plans and adopted point
   are cached;
3. **multi-tenant schedule warm vs cold** — repeated scheduler runs over
   one workload reuse the admission ladder's cached simulations;
4. **allocator at 10k live blocks** — the bisect-indexed
   :class:`~repro.alloc.pool.PoolAllocator` must beat a linear-scan
   reference (the pre-index implementation, inlined below) by at least
   5x per alloc/free pair.

Results land in ``BENCH_perf.json`` at the repo root so CI can archive
the numbers next to the figure outputs.  Runs under pytest (collected
with the rest of ``benchmarks/``) or standalone via ``python
benchmarks/bench_perf_regression.py``.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from typing import Dict, Optional

from repro.alloc.pool import ALIGNMENT, PoolAllocator, _align
from repro.hw import PAPER_SYSTEM
from repro.perf import configure_cache, get_cache
from repro.zoo import build

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: Floors asserted by the tests (ratios, warm/new over cold/old).
MIN_EVALUATE_SPEEDUP = 5.0
MIN_DYNAMIC_SPEEDUP = 2.0
MIN_ALLOCATOR_SPEEDUP = 5.0

_results: Dict[str, dict] = {}


def _flush_results() -> None:
    """Merge this bench's sections into BENCH_perf.json.

    Read-modify-write: every bench owns a fixed set of top-level keys
    in the shared file and replaces only those, so running one bench
    never clobbers another's numbers.  The full registry:

    ==================  =============================================
    key                 owner
    ==================  =============================================
    ``evaluate``        this bench (warm vs cold cache hit)
    ``dynamic``         this bench (vDNN_dyn warm re-planning)
    ``schedule``        this bench (admission-ladder cache reuse)
    ``allocator``       this bench (bisect pool vs linear scan)
    ``cache``           this bench (sweep-cache hit statistics)
    ``core_speed``      ``bench_core_speed.py`` (compiled-plan core
                        vs the vendored pre-overhaul reference)
    ``obs_overhead``    ``bench_obs_overhead.py`` (instrumented vs
                        no-op runs)
    ``serving``         ``bench_ext_serving.py`` (SLO attainment,
                        tail latency, goodput)
    ``cluster``         ``bench_ext_cluster.py`` (topology scaling
                        efficiency, fleet utilization/fairness)
    ==================  =============================================

    A new bench must claim a fresh key and follow the same
    read-modify-write idiom (see ``bench_core_speed._flush_results``).
    """
    payload = {}
    if RESULTS_PATH.exists():
        try:
            payload = json.loads(RESULTS_PATH.read_text())
        except ValueError:
            payload = {}
    payload.update(_results)
    payload["cache"] = get_cache().stats.snapshot()
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")


# ----------------------------------------------------------------------
# 1. evaluate: cold simulation vs warm cache hit
# ----------------------------------------------------------------------
def measure_evaluate() -> dict:
    from repro.core import evaluate

    configure_cache()
    network = build("vgg16", 64)

    start = time.perf_counter()
    cold_result = evaluate(network, PAPER_SYSTEM, policy="all", algo="m")
    cold = time.perf_counter() - start

    # Median of several warm reads: a hit is unpickling one blob.
    warm_times = []
    for _ in range(5):
        start = time.perf_counter()
        warm_result = evaluate(network, PAPER_SYSTEM, policy="all", algo="m")
        warm_times.append(time.perf_counter() - start)
    warm = sorted(warm_times)[len(warm_times) // 2]

    assert warm_result == cold_result, "cache hit must be value-equal"
    section = {"cold_s": cold, "warm_s": warm, "speedup": cold / warm}
    _results["evaluate"] = section
    return section


def test_evaluate_warm_cache_speedup():
    section = measure_evaluate()
    _flush_results()
    assert section["speedup"] >= MIN_EVALUATE_SPEEDUP, (
        f"warm evaluate only {section['speedup']:.1f}x faster than cold "
        f"(need >= {MIN_EVALUATE_SPEEDUP}x)"
    )


# ----------------------------------------------------------------------
# 2. vDNN_dyn: planning cold vs warm
# ----------------------------------------------------------------------
def measure_dynamic() -> dict:
    from repro.core.dynamic import plan_dynamic

    network = build("vgg16", 128)

    configure_cache()
    start = time.perf_counter()
    cold_plan = plan_dynamic(network, PAPER_SYSTEM)
    cold = time.perf_counter() - start

    # Second planning run: the interpreted probes walk again, but over
    # the compiled plans the first run built, and the adopted point's
    # simulation replays from the cache.
    start = time.perf_counter()
    warm_plan = plan_dynamic(network, PAPER_SYSTEM)
    warm = time.perf_counter() - start

    assert warm_plan.result == cold_plan.result
    section = {"cold_s": cold, "warm_s": warm, "speedup": cold / warm}
    _results["dynamic"] = section
    return section


def test_dynamic_profiling_speedup():
    section = measure_dynamic()
    _flush_results()
    assert section["speedup"] >= MIN_DYNAMIC_SPEEDUP, (
        f"warm dyn planning only {section['speedup']:.1f}x faster than cold "
        f"(need >= {MIN_DYNAMIC_SPEEDUP}x)"
    )


# ----------------------------------------------------------------------
# 3. multi-tenant schedule: admission ladder reuse across runs
# ----------------------------------------------------------------------
def measure_schedule() -> dict:
    from repro.sched import Job, schedule_jobs

    jobs = [
        Job("alexnet#0", "alexnet", 64, iterations=20),
        Job("googlenet#1", "googlenet", 64, iterations=20),
        Job("alexnet#2", "alexnet", 32, iterations=20),
        Job("vgg16#3", "vgg16", 32, iterations=20),
    ]

    configure_cache()
    start = time.perf_counter()
    cold_result = schedule_jobs(jobs, system=PAPER_SYSTEM,
                                policy="best_fit", budget_bytes=12 << 30)
    cold = time.perf_counter() - start

    start = time.perf_counter()
    warm_result = schedule_jobs(jobs, system=PAPER_SYSTEM,
                                policy="best_fit", budget_bytes=12 << 30)
    warm = time.perf_counter() - start

    assert warm_result.makespan == cold_result.makespan
    section = {"cold_s": cold, "warm_s": warm, "speedup": cold / warm}
    _results["schedule"] = section
    return section


def test_schedule_warm_cache_speedup():
    section = measure_schedule()
    _flush_results()
    # The scheduler's own packing loop dominates once the ladder is
    # cached, so only a loose floor is asserted here; the ratio is
    # recorded for trend tracking.
    assert section["speedup"] >= 1.0, (
        f"warm schedule slower than cold ({section['speedup']:.2f}x)"
    )


# ----------------------------------------------------------------------
# 4. allocator: bisect-indexed pool vs linear-scan reference
# ----------------------------------------------------------------------
class LinearScanPool:
    """The pre-index allocator: dict free list, O(n) scans everywhere.

    Kept verbatim-in-spirit as the regression reference so the bench
    measures the index, not incidental differences: same alignment,
    same best-fit tie-break (smallest hole, then lowest offset), same
    coalescing semantics.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._free = {0: capacity}
        self._live = {}

    def alloc(self, nbytes: int):
        size = max(_align(nbytes), ALIGNMENT)
        best = None
        for offset, hole in self._free.items():
            if hole >= size and (
                best is None or (hole, offset) < (self._free[best], best)
            ):
                best = offset
        if best is None:
            raise MemoryError(size)
        hole = self._free.pop(best)
        if hole > size:
            self._free[best + size] = hole - size
        self._live[best] = size
        return best

    def free(self, offset: int) -> None:
        size = self._live.pop(offset)
        follower = self._free.pop(offset + size, None)
        if follower is not None:
            size += follower
        for prev_offset, prev_size in self._free.items():
            if prev_offset + prev_size == offset:
                del self._free[prev_offset]
                offset, size = prev_offset, prev_size + size
                break
        self._free[offset] = size


def _fragmented_workload(pool, count: int, block: int = 4096):
    """Allocate ``count`` blocks and free every other one: ~count/2 holes."""
    handles = [pool.alloc(block) for _ in range(count)]
    for handle in handles[::2]:
        pool.free(handle)
    return handles[1::2]


def _time_pairs(pool, pairs: int, rng: random.Random) -> float:
    sizes = [rng.choice((256, 512, 1024, 2048)) for _ in range(pairs)]
    start = time.perf_counter()
    for size in sizes:
        handle = pool.alloc(size)
        pool.free(handle)
    return (time.perf_counter() - start) / pairs


def measure_allocator(blocks: int = 20_000) -> dict:
    # ~blocks/2 live blocks and ~blocks/2 free holes in each pool.
    capacity = blocks * 4096 * 2

    linear = LinearScanPool(capacity)
    _fragmented_workload(linear, blocks)
    linear_per_pair = _time_pairs(linear, 200, random.Random(7))

    indexed = PoolAllocator(capacity)
    live = [indexed.alloc(4096) for _ in range(blocks)]
    for allocation in live[::2]:
        indexed.free(allocation)
    indexed_per_pair = _time_pairs(
        _IndexedAdapter(indexed), 2_000, random.Random(7))
    indexed.check_invariants()

    section = {
        "live_blocks": blocks // 2,
        "linear_us_per_pair": linear_per_pair * 1e6,
        "indexed_us_per_pair": indexed_per_pair * 1e6,
        "speedup": linear_per_pair / indexed_per_pair,
    }
    _results["allocator"] = section
    return section


class _IndexedAdapter:
    """Give PoolAllocator the same handle-free alloc/free shape."""

    def __init__(self, pool: PoolAllocator):
        self._pool = pool

    def alloc(self, nbytes: int):
        return self._pool.alloc(nbytes)

    def free(self, allocation) -> None:
        self._pool.free(allocation)


def test_allocator_indexed_speedup():
    section = measure_allocator()
    _flush_results()
    assert section["speedup"] >= MIN_ALLOCATOR_SPEEDUP, (
        f"indexed allocator only {section['speedup']:.1f}x faster than the "
        f"linear-scan reference (need >= {MIN_ALLOCATOR_SPEEDUP}x)"
    )


# ----------------------------------------------------------------------
def main() -> int:
    for name, fn in (("evaluate", measure_evaluate),
                     ("dynamic", measure_dynamic),
                     ("schedule", measure_schedule),
                     ("allocator", measure_allocator)):
        section = fn()
        print(f"{name:>10s}: " + "  ".join(
            f"{k}={v:,.4g}" for k, v in section.items()))
    _flush_results()
    print(f"wrote {RESULTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
