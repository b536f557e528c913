"""One benchmark repetition in a fresh, single-threaded process.

``run.py`` starts one of these per (workload, repetition), so every
cache in the program starts empty, as it does for a CLI user:

    python3 bench/worker.py --workload NAME --seed N --spawned T [--trace]

``--spawned`` is the parent's ``time.monotonic()`` just before it
started this process, so ``setup_s`` covers interpreter start, imports
and input generation.  The worker prints one JSON object: set-up and
pass times, peak RSS after the pass, the output checks, the modeled
metrics, an output digest and, with ``--trace``, the per-layer numbers.

Host times are reported at nominal host speed.  A shared host switches
between speeds that differ by up to 2x for tens of seconds at a time,
so the worker times a fixed reference loop before set-up, before the
pass and after it, and scales each phase's raw time by
``NOMINAL_REFERENCE_S`` over the mean of the two loops around it.  The
raw times are reported too (``raw_setup_s``, ``raw_wall_s``).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import pickle
import resource
import sys
import time
import traceback
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
#: The reference loop's time on the nominal host, in seconds.
NOMINAL_REFERENCE_S = 0.04


def layer_metrics(tracer, items: int, wall: float) -> dict:
    """Per-layer numbers from one traced pass (see README.md)."""
    from repro.perf.cache import get_cache
    from tracer import LAYERS, ROOT

    counts = tracer.counts
    metrics = {
        "unattributed_pct": 100.0 * tracer.self_seconds.get(ROOT, 0.0) / wall,
    }
    for layer, targets in LAYERS.items():
        metrics[f"{layer}.self_pct"] = \
            100.0 * tracer.self_seconds.get(layer, 0.0) / wall
        for _module, _attribute, counter, probe_arg in targets:
            if counter is None:
                continue
            metrics[f"{layer}.{counter}"] = counts.get(f"{layer}.{counter}", 0)
            if probe_arg is not None:
                ladders = counts.get(f"{layer}.{counter}", 0)
                metrics[f"{layer}.probes_per_ladder"] = \
                    counts.get(f"{layer}.probes", 0) / ladders if ladders else 0
    lookups = metrics["core.plan.lookups"]
    metrics["core.plan.hit_ratio"] = \
        1.0 - metrics["core.plan.compiles"] / lookups if lookups else 0.0
    metrics["alloc.pool.ops"] = sum(
        pool.stats["allocs"] + pool.stats["frees"] for pool in tracer.pools)
    cache = get_cache().stats
    for name in ("hits", "misses", "stores", "evictions"):
        metrics[f"perf.cache.{name}"] = getattr(cache, name)
    looked_up = cache.hits + cache.misses
    metrics["perf.cache.hit_ratio"] = cache.hits / looked_up if looked_up \
        else 0.0
    metrics["serve.layering.plans_per_request"] = \
        metrics["serve.layering.plans"] / items
    return metrics


def reference_seconds() -> float:
    """Time a fixed stdlib-only loop with the simulator's mix of work:
    interpreted dict and tuple traffic, plus the C-coded sorting, JSON
    encoding, hashing and pickling that fingerprints and the result
    cache spend their time in.

    The collector is off so the loop's time depends on the host's
    speed alone, not on how large the program's heap has grown, and its
    data stay small so the loop does not raise the peak RSS.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table, items = {}, [None] * 8192
        for i in range(40_000):
            key = i * 7919 % 2048
            table[key] = table.get(key, 0) + i
            items[i & 8191] = (key, i)
            if i & 8191 == 8191:
                blob = json.dumps(table, sort_keys=True).encode()
                hashlib.sha256(blob * 16).digest()
                pickle.loads(pickle.dumps(sorted(items), protocol=5))
        return time.perf_counter() - start
    finally:
        gc.enable()


def repetition(args) -> dict:
    import workloads
    from tracer import Tracer

    workload = workloads.WORKLOADS[args.workload]
    result = {"attempted": 1, "failed": 1, "problems": []}
    try:
        before_setup = reference_seconds()
        inputs = workload.setup(args.seed, args.quick)
        result["attempted"] = result["failed"] = inputs["items"]
        setup = time.monotonic() - args.spawned - before_setup
        before_pass = reference_seconds()
        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            outputs = tracer.root(lambda: workload.run(inputs)) \
                if tracer is not None else workload.run(inputs)
        finally:
            wall = time.perf_counter() - start
            if tracer is not None and tracer.remove():
                result["problems"].append(
                    "tracing wrappers are still installed after removal")
        result["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        after_pass = reference_seconds()
        # Each phase is scaled by the reference loops that bracket it.
        setup_scale = 2 * NOMINAL_REFERENCE_S / (before_setup + before_pass)
        pass_scale = 2 * NOMINAL_REFERENCE_S / (before_pass + after_pass)
        result.update(setup_s=setup * setup_scale, wall_s=wall * pass_scale,
                      raw_setup_s=setup, raw_wall_s=wall,
                      reference_s=[before_setup, before_pass, after_pass])
        failed, problems = workload.check(inputs, outputs)
        result["failed"] = failed
        result["problems"] += problems
        result["modeled"] = workload.modeled(inputs, outputs)
        result["digest"] = workload.digest(outputs)
        if tracer is not None:
            result["layers"] = layer_metrics(tracer, inputs["items"], wall)
            result["layers"]["traced_wall_s"] = result["wall_s"]
            if args.chrome:
                tracer.write_chrome_trace(args.chrome)
    except Exception:
        result["problems"].append(traceback.format_exc())
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--chrome", help="write the spans here (JSON)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    print(json.dumps(repetition(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
