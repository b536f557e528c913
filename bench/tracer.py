"""Outside-in layer tracing: wrap each layer's public entry points.

Nothing under ``src/`` knows about this module.  :class:`Tracer` swaps
the entry points listed in :data:`LAYERS` for timing wrappers, at every
place a loaded ``repro`` module binds them: ``from .executor import
simulate_vdnn`` copies the function into the importing module, so
patching only the defining module would miss most calls.  Methods are
patched once, on their class.

Each wrapper opens a span (layer, entry point, start, end, parent) and
computes the span's self time as it closes: its duration minus the
time covered by its child spans.  Spans stay in memory; the Chrome-trace
writer dumps them once, after the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

#: layer -> [(module, attribute, counter, probe argument index)].
#: Every call of the attribute adds one to ``<layer>.<counter>`` (none
#: when the counter is None).  For a planning ladder the probe callable
#: at the given argument index is wrapped too, and its calls count as
#: ``<layer>.probes``.
LAYERS: Dict[str, List[Tuple[str, str, Optional[str], Optional[int]]]] = {
    "zoo": [("repro.zoo.registry", "build", "calls", None)],
    "core.api": [
        ("repro.core.api", "evaluate", None, None),
        ("repro.core.api", "compare_policies", None, None),
        ("repro.core.api", "oracular_baseline", None, None),
    ],
    "core.liveness": [
        ("repro.core.liveness", "LivenessAnalysis.__init__", "calls", None),
    ],
    "core.plan": [
        ("repro.core.plan", "compiled_plan", "lookups", None),
        ("repro.core.plan", "CompiledPlan.__init__", "compiles", None),
    ],
    "core.executor": [
        ("repro.core.executor", "simulate_vdnn", "walks", None),
        ("repro.core.executor", "simulate_baseline", "walks", None),
    ],
    "core.dynamic": [
        ("repro.core.dynamic", "run_profiling_ladder", "ladders", 1),
    ],
    "core.joint": [
        ("repro.core.joint", "run_joint_ladder", "ladders", 2),
        ("repro.core.joint", "simulate_joint_config", "walks", None),
    ],
    "core.recompute": [
        ("repro.core.recompute", "simulate_recompute", "walks", None),
    ],
    "alloc.pool": [
        ("repro.alloc.pool", "PoolAllocator.__init__", None, None),
    ],
    "perf.fingerprint": [
        ("repro.perf.fingerprint", "fingerprint_point", "calls", None),
    ],
    "perf.cache": [
        ("repro.perf.cache", "SimulationCache.get", None, None),
        ("repro.perf.cache", "SimulationCache.put", None, None),
    ],
    "analysis.verify": [
        ("repro.analysis.verify", "verify_point", None, None),
        ("repro.analysis.verify", "verify_result", None, None),
    ],
    "analysis.hb": [
        ("repro.analysis.hb", "HBGraph.__init__", "calls", None),
        ("repro.analysis.hb", "check_races", "calls", None),
    ],
    "analysis.safety": [
        ("repro.analysis.safety", "check_memory_safety", "calls", None),
    ],
    "analysis.static_plan": [
        ("repro.analysis.static_plan", "verify_point_static", None, None),
        ("repro.analysis.static_plan", "interpret_plan", "interprets", None),
        ("repro.analysis.static_plan", "interpret_joint_plan", "interprets",
         None),
        ("repro.analysis.static_plan", "audit_plan", "audits", None),
    ],
    "reporting.figures": [
        ("repro.reporting.figures", name, None, None)
        for name in ("fig01_baseline_usage", "fig04_breakdown",
                     "fig11_memory_usage", "fig12_offload_size",
                     "fig14_performance", "fig15_very_deep",
                     "power_section", "headline")
    ],
    "sim.power": [("repro.sim.power", "analyze_power", None, None)],
    "serve.layering": [
        ("repro.serve.layering", "plan_service", "plans", None),
    ],
    "serve.server": [
        ("repro.serve.server", "simulate_serving", None, None),
    ],
    "sched.admission": [
        ("repro.sched.admission", "evaluate_ladder", "ladders", None),
    ],
    "sched.scheduler": [
        ("repro.sched.scheduler", "GPUScheduler.run", None, None),
    ],
    "cluster.fleet": [
        ("repro.cluster.fleet", "FleetScheduler.run", None, None),
    ],
    "cluster.contention": [
        ("repro.cluster.contention", "FleetContention.iteration_seconds",
         "calls", None),
    ],
}

#: Pseudo-layer of the benchmark's own code between layer calls.
ROOT = "bench"


def _repro_modules() -> List[object]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == "repro" or name.startswith("repro."))]


class Tracer:
    """Installs the layer wrappers, records spans, and removes them."""

    def __init__(self) -> None:
        #: Closed spans as (layer, entry point, start, end, parent index).
        self.spans: List[Optional[Tuple[str, str, float, float, int]]] = []
        self.self_seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        #: Every pool built during the run; their stats give the
        #: allocator's op count without wrapping each alloc and free.
        self.pools: List[object] = []
        # Open spans as [span index, child seconds, start].
        self._stack: List[list] = []
        # id(wrapper) -> (wrapper, original); ids because module
        # globals include unhashable values.
        self._wrappers: Dict[int, Tuple[Callable, Callable]] = {}
        self._class_patches: List[Tuple[type, str, Callable]] = []

    # ------------------------------------------------------------------
    def _open(self) -> None:
        self._stack.append([len(self.spans), 0.0, time.perf_counter()])
        self.spans.append(None)

    def _close(self, layer: str, label: str) -> None:
        end = time.perf_counter()
        index, children, start = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += duration
        self.self_seconds[layer] = self.self_seconds.get(layer, 0.0) \
            + duration - children
        self.spans[index] = (layer, label, start, end,
                             parent[0] if parent is not None else -1)

    def _count(self, key: str) -> None:
        self.counts[key] = self.counts.get(key, 0) + 1

    def root(self, work: Callable[[], object]) -> object:
        """Run ``work`` inside the root span, whose self time is the
        wall time no layer accounts for."""
        self._open()
        try:
            return work()
        finally:
            self._close(ROOT, ROOT)

    # ------------------------------------------------------------------
    def _wrap(self, layer: str, label: str, counter: Optional[str],
              probe_arg: Optional[int], fn: Callable) -> Callable:
        key = f"{layer}.{counter}" if counter else None
        probes = f"{layer}.probes"
        # PoolAllocator.__init__'s wrapper keeps the pool for its stats.
        registers_pool = layer == "alloc.pool"
        tracer = self

        def counted(probe: Callable) -> Callable:
            def probe_wrapper(*args, **kwargs):
                tracer._count(probes)
                return probe(*args, **kwargs)
            return probe_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key:
                tracer._count(key)
            if registers_pool:
                tracer.pools.append(args[0])
            if probe_arg is not None and len(args) > probe_arg:
                args = list(args)
                args[probe_arg] = counted(args[probe_arg])
            tracer._open()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(layer, label)

        self._wrappers[id(wrapper)] = (wrapper, fn)
        return wrapper

    def _original(self, value: object) -> Optional[Callable]:
        entry = self._wrappers.get(id(value))
        return entry[1] if entry is not None and entry[0] is value else None

    def install(self) -> None:
        """Patch every entry point in :data:`LAYERS` at every binding."""
        targets = [(layer, importlib.import_module(module_name), attribute,
                    counter, probe_arg)
                   for layer, entries in LAYERS.items()
                   for module_name, attribute, counter, probe_arg in entries]
        modules = _repro_modules()
        for layer, module, attribute, counter, probe_arg in targets:
            owner_name, _, name = attribute.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[name]
                setattr(owner, name, self._wrap(
                    layer, attribute, counter, probe_arg, original))
                self._class_patches.append((owner, name, original))
                continue
            original = getattr(module, name)
            wrapper = self._wrap(layer, f"{module.__name__}.{name}", counter,
                                 probe_arg, original)
            for loaded in modules:
                for binding, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, binding, wrapper)

    def remove(self) -> int:
        """Restore every original; return how many wrappers remain.

        Modules first imported while tracing bound the wrappers
        themselves, so every loaded ``repro`` module is swept.
        """
        for owner, name, original in self._class_patches:
            setattr(owner, name, original)
        left = sum(owner.__dict__[name] is not original
                   for owner, name, original in self._class_patches)
        for loaded in _repro_modules():
            for binding, value in list(vars(loaded).items()):
                original = self._original(value)
                if original is not None:
                    setattr(loaded, binding, original)
        for loaded in _repro_modules():
            left += sum(self._original(value) is not None
                        for value in vars(loaded).values())
        return left

    # ------------------------------------------------------------------
    def write_chrome_trace(self, path: str) -> None:
        """Dump the spans as Chrome-trace complete events (microseconds)."""
        closed = [(index, span) for index, span in enumerate(self.spans)
                  if span is not None]
        origin = min((span[2] for _index, span in closed), default=0.0)
        events = [
            {"name": label, "cat": layer, "ph": "X", "pid": 1, "tid": 1,
             "ts": (start - origin) * 1e6, "dur": (end - start) * 1e6,
             "args": {"span": index, "parent": parent}}
            for index, (layer, label, start, end, parent) in closed
        ]
        with open(path, "w") as handle:
            json.dump({"traceEvents": events}, handle)
