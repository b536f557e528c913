"""The serving event loop: many models time-sharing one modeled GPU.

One :func:`simulate_serving` run drains a deterministic open-loop
request stream (:mod:`repro.serve.arrivals`) through a single serial
GPU whose device memory is one cnmem-style :class:`PoolAllocator`.
Models multiplex the pool: a model's *persistent* weights (all of them
for ``resident``, the pinned set for ``pinned``, none for ``layered``)
are installed on first use — a cold start paying the PCIe upload — and
evicted LRU when another model needs the room.  Each request then
allocates its transient footprint (sliding window + activations),
replays its :class:`~repro.serve.layering.ServicePlan`, and frees it.

Under overload the server degrades along a ladder, mirroring the
scheduler's admission ladder (strong before weak, never fail outright
while a cheaper mode remains):

1. **shrink window** — streaming models re-plan with half the window,
   trading per-request stall for footprint (fewer evictions / cold
   starts keep throughput up);
2. **shed low-priority** — the queue holds its depth by dropping the
   worst-ranked request (lowest priority, then latest arrival);
3. **reject** — beyond the hard depth bound, arrivals are turned away
   at the door.

Everything is deterministic per (scenario, seed): arrivals and fault
draws come from seeded RNGs, queue order is a total order
``(-priority, arrival, rid)``, and the loop carries a no-progress
guard (the scheduler's idiom) so a logic bug surfaces as a loud
``RuntimeError`` instead of a silent spin.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import random

from ..alloc.pool import Allocation, OutOfMemoryError, PoolAllocator
from ..core.algo_config import AlgoConfig
from ..faults.spec import FaultSpec
from ..graph.network import Network
from ..hw.config import SystemConfig
from ..obs.instrument import Instrumentation
from ..sim.timeline import EventKind, Timeline
from ..sim.trace import MODEL_STREAM_PREFIX
from ..zoo import build
from .arrivals import ArrivalSpec, ModelSpec, Request, generate_requests
from .layering import RESIDENCY_POLICIES, ServePlanError, ServicePlan, \
    plan_service, resident_footprint_bytes, shrink_window, \
    streamed_layer_bytes

#: Residency choices accepted by :class:`ServeConfig` (adds ``auto``).
RESIDENCY_CHOICES = ("auto",) + RESIDENCY_POLICIES

#: Ceiling on ladder rung-1 firings per model — below this the window
#: has long since clamped at its largest-layer floor.
MAX_WINDOW_SHRINKS = 4


class ServeConfigError(ValueError):
    """Raised when a serving configuration cannot be realized."""


@dataclass(frozen=True)
class ServeConfig:
    """One serving scenario: who arrives, what serves them, what fits.

    Attributes:
        models: the deployed model set (zoo keys + priorities).
        arrivals: open-loop arrival process.
        requests: request-stream length to generate and drain.
        budget_bytes: device pool capacity shared by all models.
        slo_seconds: end-to-end latency target for SLO attainment.
        residency: ``auto`` (fair-share heuristic, below) or one fixed
            policy from :data:`~repro.serve.layering.RESIDENCY_POLICIES`.
        window_bytes: requested sliding window for streaming policies.
        pinned_bytes: on-device weight budget for ``pinned``.
        batch: per-request batch size.
        shrink_depth: queue depth that fires ladder rung 1.
        shed_depth: queue depth that fires rung 2 (must be >= rung 1).
        reject_depth: hard queue bound firing rung 3 (>= rung 2).
        faults: imperfect-machine description (PCIe degradation and
            jitter, transient DMA failures, timed budget shrinks and
            model evictions); :meth:`FaultSpec.none` = perfect machine.
        fault_seed: seed for the stochastic fault draws.
    """

    models: Tuple[ModelSpec, ...]
    arrivals: ArrivalSpec
    requests: int = 500
    budget_bytes: int = 4 * (1 << 30)
    slo_seconds: float = 0.25
    residency: str = "auto"
    window_bytes: int = 64 * (1 << 20)
    pinned_bytes: int = 128 * (1 << 20)
    batch: int = 1
    shrink_depth: int = 8
    shed_depth: int = 16
    reject_depth: int = 32
    faults: FaultSpec = field(default_factory=FaultSpec.none)
    fault_seed: int = 0

    def __post_init__(self) -> None:
        if not self.models:
            raise ServeConfigError("serving needs at least one model")
        if self.requests < 0:
            raise ServeConfigError(
                f"request count cannot be negative, got {self.requests}")
        if self.budget_bytes <= 0:
            raise ServeConfigError(
                f"budget_bytes must be positive, got {self.budget_bytes}")
        if self.slo_seconds <= 0:
            raise ServeConfigError(
                f"slo_seconds must be positive, got {self.slo_seconds}")
        if self.residency not in RESIDENCY_CHOICES:
            raise ServeConfigError(
                f"unknown residency {self.residency!r}; "
                f"choices: {', '.join(RESIDENCY_CHOICES)}")
        if not 0 < self.shrink_depth <= self.shed_depth <= self.reject_depth:
            raise ServeConfigError(
                "ladder depths must satisfy 0 < shrink <= shed <= reject, "
                f"got {self.shrink_depth}/{self.shed_depth}/"
                f"{self.reject_depth}")


@dataclass(frozen=True)
class RequestRecord:
    """Terminal fate of one request."""

    rid: int
    model: str
    priority: int
    arrival: float
    outcome: str                 # one of obs.SERVE_OUTCOMES
    start: float = 0.0           # service start (completed only)
    finish: float = 0.0          # service end (completed only)
    cold_start: bool = False     # this request paid a model install

    @property
    def latency(self) -> float:
        """Arrival-to-completion latency (0 for non-completions)."""
        return self.finish - self.arrival if self.outcome == "completed" \
            else 0.0


@dataclass
class ServeResult:
    """Everything one serving run produced."""

    config: ServeConfig
    records: List[RequestRecord]
    plans: Dict[str, ServicePlan]
    timeline: Timeline
    obs: Instrumentation
    pool_peak_bytes: int
    makespan: float
    cold_starts: int
    evictions: int
    window_shrinks: int
    unservable: Tuple[str, ...] = ()

    @property
    def completed(self) -> int:
        return sum(1 for r in self.records if r.outcome == "completed")

    @property
    def shed(self) -> int:
        return sum(1 for r in self.records if r.outcome == "shed")

    @property
    def rejected(self) -> int:
        return sum(1 for r in self.records if r.outcome == "rejected")


def _queue_key(request: Request) -> Tuple[int, float, int]:
    """Total service order: priority desc, then FIFO, then rid."""
    return (-request.priority, request.time, request.rid)


class _PendingQueue:
    """The pending-request queue as a pair of heaps over one live set.

    The old implementation kept a sorted list (``bisect.insort`` is
    O(n) per admit, and shed displacement popped from the far end).
    Here a min-heap yields the service order and a max-heap (the same
    keys negated) yields the worst-ranked request for displacement;
    whichever heap a request leaves through, its rid is removed from
    the live set and the stale twin entry is discarded lazily on the
    next peek.

    Every heap entry is ``(key, seq, request)`` with ``seq`` a monotone
    admission counter as an explicit tie-breaker.  ``_queue_key`` is
    already a total order (rid is unique), so heap order is *identical*
    to the sorted-list order — the seq exists so that comparisons can
    never fall through to the (uncomparable) Request object, by
    construction rather than by reliance on rid uniqueness.
    """

    __slots__ = ("_best", "_worst", "_live", "_seq")

    def __init__(self) -> None:
        self._best: List[tuple] = []
        self._worst: List[tuple] = []
        self._live: set = set()
        self._seq = 0

    def __len__(self) -> int:
        return len(self._live)

    def push(self, request: Request) -> None:
        priority, time, rid = _queue_key(request)
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._best, ((priority, time, rid), seq, request))
        heapq.heappush(self._worst, ((-priority, -time, -rid), seq, request))
        self._live.add(request.rid)

    def worst(self) -> Optional[Request]:
        """The request shed displacement would evict (None when empty)."""
        heap = self._worst
        while heap and heap[0][2].rid not in self._live:
            heapq.heappop(heap)
        return heap[0][2] if heap else None

    def pop_worst(self) -> Request:
        request = self.worst()
        if request is None:
            raise IndexError("pop_worst from an empty queue")
        heapq.heappop(self._worst)
        self._live.remove(request.rid)
        return request

    def pop_best(self) -> Request:
        heap = self._best
        while heap and heap[0][2].rid not in self._live:
            heapq.heappop(heap)
        if not heap:
            raise IndexError("pop_best from an empty queue")
        request = heapq.heappop(heap)[2]
        self._live.remove(request.rid)
        return request


class _ModelState:
    """Mutable per-model serving state."""

    __slots__ = ("spec", "network", "algos", "plan", "allocation",
                 "last_used", "streamed_dma", "window_floor", "shrinks")

    def __init__(self, spec: ModelSpec, network: Network,
                 algos: AlgoConfig, plan: ServicePlan):
        self.spec = spec
        self.network = network
        self.algos = algos
        self.plan = plan
        self.allocation: Optional[Allocation] = None
        self.last_used = -1.0
        self.streamed_dma: List[float] = []
        #: Largest streamed layer, the window ``plan_service`` clamps to.
        self.window_floor = 0
        self.shrinks = 0

    @property
    def installed(self) -> bool:
        return self.allocation is not None or self.plan.persistent_bytes == 0


def _resolve_residency(
    config: ServeConfig,
    networks: Dict[str, Network],
    algo_of: Dict[str, AlgoConfig],
    system: SystemConfig,
) -> Dict[str, ServicePlan]:
    """Pick each model's plan; ``auto`` = resident within a fair share.

    The heuristic: a model keeps classic resident serving if its whole
    resident footprint fits in ``budget / n_models`` (every model can
    then stay installed simultaneously — zero steady-state cold
    starts); otherwise it falls back to demand layering, which is what
    lets a model set whose resident weights exceed the budget serve at
    all.  The footprint (weights plus activation peak) decides before
    any plan is built, so each model is planned once.
    """
    plans: Dict[str, ServicePlan] = {}
    share = config.budget_bytes // len(config.models)
    for spec in config.models:
        name = spec.name
        network = networks[name]
        algos = algo_of[name]
        if config.residency == "auto":
            if resident_footprint_bytes(network, system, algos) <= share:
                plans[name] = plan_service(network, system, algos,
                                           "resident")
            else:
                plans[name] = plan_service(
                    network, system, algos, "layered",
                    window_bytes=config.window_bytes)
        else:
            plans[name] = plan_service(
                network, system, algos, config.residency,
                window_bytes=config.window_bytes,
                pinned_bytes=config.pinned_bytes)
    return plans


def _degraded_system(system: SystemConfig, faults: FaultSpec) -> SystemConfig:
    """Apply the sustained PCIe degradation to the planning system."""
    if faults.pcie_bw_factor >= 1.0:
        return system
    link = replace(
        system.pcie,
        dma_bandwidth=system.pcie.dma_bandwidth * faults.pcie_bw_factor)
    return replace(system, pcie=link)


def simulate_serving(
    config: ServeConfig,
    system: Optional[SystemConfig] = None,
    obs: Optional[Instrumentation] = None,
) -> ServeResult:
    """Drain the scenario's request stream; return the full record.

    Unlike the training-side simulators, ``obs=None`` here creates a
    *live* :class:`Instrumentation` rather than skipping hooks: the
    serving report is defined in terms of the per-model latency
    histograms (p50/p95/p99 via quantile, SLO attainment via
    fraction-below), so metrics are the product, not a side channel.
    """
    system = system if system is not None else SystemConfig()
    system = _degraded_system(system, config.faults)
    obs = obs if obs is not None else Instrumentation()

    # -- static per-model state ----------------------------------------
    networks: Dict[str, Network] = {}
    algo_of: Dict[str, AlgoConfig] = {}
    for spec in config.models:
        network = build(spec.name, config.batch)
        networks[spec.name] = network
        # Serving is memory-constrained by definition; memory-optimal
        # algorithms keep workspace out of the multiplexed pool.
        algo_of[spec.name] = AlgoConfig.memory_optimal(network)
    plans = _resolve_residency(config, networks, algo_of, system)

    states: Dict[str, _ModelState] = {}
    unservable: List[str] = []
    for spec in config.models:
        state = _ModelState(spec, networks[spec.name],
                            algo_of[spec.name], plans[spec.name])
        streamed = streamed_layer_bytes(state.network, state.plan)
        state.streamed_dma = [system.pcie.dma_time(streamed[index])
                              for index in sorted(streamed)]
        state.window_floor = max(streamed.values(), default=0)
        states[spec.name] = state
        if state.plan.footprint_bytes > config.budget_bytes:
            # Even alone on the device this plan cannot serve: its
            # requests are rejected at service time (never silently).
            unservable.append(spec.name)

    requests = generate_requests(config.arrivals, config.models,
                                 config.requests)
    rng = random.Random(config.fault_seed)
    pool = PoolAllocator(config.budget_bytes)
    timeline = Timeline()
    records: List[RequestRecord] = []
    pending = _PendingQueue()
    shrink_events = sorted(config.faults.budget_shrinks)
    evict_events = sorted(config.faults.evictions)
    cold_starts = 0
    evictions = 0
    window_shrinks = 0
    gpu_free = 0.0
    next_arrival = 0

    # ------------------------------------------------------------------
    def evict(name: str) -> None:
        nonlocal evictions
        state = states[name]
        if state.allocation is not None:
            pool.free(state.allocation)
            state.allocation = None
            evictions += 1

    def make_room(nbytes: int, keep: str) -> bool:
        """Evict idle installed models (LRU first) until fit or empty."""
        while not pool.can_fit(nbytes):
            idle = [s for s in states.values()
                    if s.allocation is not None and s.spec.name != keep]
            if not idle:
                return pool.can_fit(nbytes)
            victim = min(idle, key=lambda s: (s.last_used, s.spec.name))
            evict(victim.spec.name)
        return True

    def apply_timed_faults(now: float) -> None:
        """Budget shrinks and forced evictions due at or before now."""
        nonlocal shrink_events, evict_events
        while shrink_events and shrink_events[0][0] <= now:
            when, factor = shrink_events.pop(0)
            target = max(1, int(config.budget_bytes * factor))
            for blocker in pool.blockers_above(target):
                owner = next((n for n, s in states.items()
                              if s.allocation is blocker), None)
                if owner is not None:
                    evict(owner)
                else:
                    pool.free(blocker)
            pool.shrink(target)
            obs.fault_event("shrink", "applied")
            timeline.record("serve", EventKind.FAULT,
                            f"shrink->{target >> 20}MiB", when, when,
                            nbytes=target)
        while evict_events and evict_events[0][0] <= now:
            when, name = evict_events.pop(0)
            if name in states and states[name].allocation is not None:
                evict(name)
                obs.fault_event("evict", "applied")
                timeline.record("serve", EventKind.FAULT,
                                f"evict {name}", when, when)
            else:
                obs.fault_event("evict", "no-target")

    def fault_overhead(state: _ModelState) -> float:
        """Stochastic per-request DMA perturbation, seconds.

        Jitter scales each streamed transfer's bandwidth by
        U(1-j, 1+j); transient failures retry with exponential backoff
        up to the spec's attempt bound, each failed attempt wasting its
        transfer time.  Draw order is fixed (jitter then failures,
        layer by layer) so runs are bit-identical per fault seed.
        """
        faults = config.faults
        if not state.streamed_dma:
            return 0.0
        rate = faults.dma_failure_rate
        if faults.prefetch_failure_rate is not None:
            rate = faults.prefetch_failure_rate
        if rate == 0.0 and faults.pcie_jitter == 0.0:
            return 0.0
        extra = 0.0
        for seconds in state.streamed_dma:
            if faults.pcie_jitter:
                factor = rng.uniform(1.0 - faults.pcie_jitter,
                                     1.0 + faults.pcie_jitter)
                extra += seconds * (1.0 / factor - 1.0)
            if rate:
                attempt = 1
                backoff = faults.backoff_base
                while (attempt < faults.max_dma_attempts
                       and rng.random() < rate):
                    obs.dma_attempt("demand", False)
                    obs.dma_backoff(backoff)
                    extra += seconds + backoff
                    backoff *= faults.backoff_factor
                    attempt += 1
                if attempt > 1:
                    obs.fault_event("dma", "recovered")
        # Favourable jitter can only reclaim DMA the pipeline exposed.
        return max(extra, -state.plan.stall_seconds)

    def shrink_ladder() -> None:
        """Ladder rung 1: halve every streaming model's window.

        A window at its floor (the largest streamed layer) is not
        re-planned: halving it clamps straight back to the floor.
        """
        nonlocal window_shrinks
        for state in states.values():
            if (state.plan.streamed_bytes == 0
                    or state.shrinks >= MAX_WINDOW_SHRINKS
                    or state.plan.window_bytes <= state.window_floor):
                continue
            smaller = shrink_window(state.network, system, state.algos,
                                    state.plan)
            if smaller.window_bytes < state.plan.window_bytes:
                state.plan = smaller
                state.shrinks += 1
                window_shrinks += 1
                obs.serve_window_shrink(state.spec.name)

    def admit(request: Request) -> None:
        """Ladder rungs 2 and 3 guard the queue at the door.

        Rung 2 (``shed_depth``) is priority displacement: a
        higher-priority arrival sheds the worst-ranked queued request
        and takes its place, so depth holds while rank improves.
        Equal-or-lower-priority arrivals still enqueue — the queue
        grows toward rung 3 (``reject_depth``), the hard bound where
        arrivals are turned away outright.
        """
        if len(pending) >= config.reject_depth:
            records.append(RequestRecord(
                rid=request.rid, model=request.model,
                priority=request.priority, arrival=request.time,
                outcome="rejected"))
            obs.serve_request(request.model, "rejected")
            return
        if (len(pending) >= config.shed_depth
                and request.priority > pending.worst().priority):
            worst = pending.pop_worst()
            records.append(RequestRecord(
                rid=worst.rid, model=worst.model,
                priority=worst.priority, arrival=worst.time,
                outcome="shed"))
            obs.serve_request(worst.model, "shed")
        pending.push(request)
        obs.serve_queue_depth(len(pending))

    # -- the event loop ------------------------------------------------
    last_snapshot: Optional[Tuple[int, int, int, float]] = None
    while next_arrival < len(requests) or pending:
        snapshot = (next_arrival, len(pending), len(records), gpu_free)
        if snapshot == last_snapshot:
            raise RuntimeError(
                "serving event loop made no progress "
                f"(arrival={next_arrival}, queued={len(pending)}, "
                f"decided={len(records)}, t={gpu_free:.6f}); "
                "this is a bug in the overload ladder")
        last_snapshot = snapshot

        if not pending:
            gpu_free = max(gpu_free, requests[next_arrival].time)
        apply_timed_faults(gpu_free)
        while (next_arrival < len(requests)
               and requests[next_arrival].time <= gpu_free):
            admit(requests[next_arrival])
            next_arrival += 1
        if not pending:
            continue
        if len(pending) >= config.shrink_depth:
            shrink_ladder()

        request = pending.pop_best()
        state = states[request.model]
        plan = state.plan
        lane = MODEL_STREAM_PREFIX + request.model

        if plan.footprint_bytes > pool.capacity:
            records.append(RequestRecord(
                rid=request.rid, model=request.model,
                priority=request.priority, arrival=request.time,
                outcome="rejected"))
            obs.serve_request(request.model, "rejected")
            continue

        start = max(gpu_free, request.time)
        cold = False
        if state.allocation is None and plan.persistent_bytes > 0:
            if not make_room(plan.persistent_bytes, request.model):
                records.append(RequestRecord(
                    rid=request.rid, model=request.model,
                    priority=request.priority, arrival=request.time,
                    outcome="rejected"))
                obs.serve_request(request.model, "rejected")
                continue
            state.allocation = pool.alloc(plan.persistent_bytes,
                                          f"W[{request.model}]")
            cold = True
            cold_starts += 1
            obs.serve_cold_start(request.model, plan.cold_start_seconds)
            timeline.record(lane, EventKind.PREFETCH, "install",
                            start, start + plan.cold_start_seconds,
                            nbytes=plan.persistent_bytes)
            start += plan.cold_start_seconds

        transient = plan.window_bytes + plan.activation_bytes
        if transient and not make_room(transient, request.model):
            records.append(RequestRecord(
                rid=request.rid, model=request.model,
                priority=request.priority, arrival=request.time,
                outcome="rejected"))
            obs.serve_request(request.model, "rejected")
            continue
        scratch = pool.alloc(transient, f"T[{request.model}]") \
            if transient else None
        obs.pool_sample(pool.live_bytes, pool.capacity,
                        pool.fragmentation)

        service = plan.service_seconds + fault_overhead(state)
        finish = start + service
        timeline.record(lane, EventKind.FORWARD, f"req{request.rid}",
                        start, finish, nbytes=plan.streamed_bytes)
        if plan.stall_seconds > 0:
            obs.stall("demand-fetch", plan.stall_seconds)
        if plan.dma_seconds > 0:
            obs.pcie_transfer("demand", plan.streamed_bytes,
                              plan.dma_seconds)
        if scratch is not None:
            pool.free(scratch)
        state.last_used = finish
        gpu_free = finish
        records.append(RequestRecord(
            rid=request.rid, model=request.model,
            priority=request.priority, arrival=request.time,
            outcome="completed", start=start, finish=finish,
            cold_start=cold))
        obs.serve_request(request.model, "completed")
        obs.serve_latency(request.model, finish - request.time)

    apply_timed_faults(float("inf"))
    obs.pool_peak(pool.peak_bytes)
    makespan = timeline.span if len(timeline) else 0.0
    obs.sched_makespan(makespan)
    records.sort(key=lambda r: r.rid)
    return ServeResult(
        config=config,
        records=records,
        plans={name: states[name].plan for name in states},
        timeline=timeline,
        obs=obs,
        pool_peak_bytes=pool.peak_bytes,
        makespan=makespan,
        cold_starts=cold_starts,
        evictions=evictions,
        window_shrinks=window_shrinks,
        unservable=tuple(sorted(unservable)),
    )
