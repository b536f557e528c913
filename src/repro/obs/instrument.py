"""The ``Instrumentation`` hook: one object, threaded everywhere.

Subsystems (executor, scheduler, prefetcher, result cache, fault
injector) accept an optional ``Instrumentation`` and call its hook
methods at interesting moments.  The contract every hook honours:

* **observe, never steer** — a hook reads values the simulation already
  computed and accumulates them into metrics/spans; it never mutates
  simulator state, draws randomness, or changes control flow.  That is
  what makes instrumented runs bit-identical to uninstrumented ones
  (the differential suite in ``tests/test_obs_differential.py`` pins
  this down for the whole zoo).
* **cheap** — the frequent hooks (DMA completions, stalls, prefetch
  searches) append one small tuple to a pending event log and return:
  the actual counter/histogram arithmetic is *deferred* and replayed
  when the registry is next read (every consumer reads through the
  draining :attr:`Instrumentation.registry` property, so deferral is
  invisible).  Counter increments and histogram observations commute,
  so replay order cannot change any exported value.  Paired updates
  share one dispatch (a completed transfer counts its own successful
  attempt, a prefetch claim counts its search hit); pool occupancy is
  reported once per run from the allocator's own exact ``peak_bytes``;
  and O(events) end-of-run summaries are likewise deferred to
  :meth:`Instrumentation.flush`, outside the simulated region.
  Rare hooks (gauges, cache/job/serve lifecycle counters) stay eager —
  gauge ``set`` does not commute, and off-hot-path dispatch is free.
  The per-request serving hooks, eager, bind each metric once per
  label value and never read the registry; serving's demand stall and
  DMA go through the eager :meth:`Instrumentation.serve_streamed`, so a
  serving run leaves the deferred log empty.

:class:`NullInstrumentation` overrides every hook with ``pass`` — the
no-op registry whose overhead ``benchmarks/bench_obs_overhead.py``
shows is unmeasurable; passing ``obs=None`` (the default everywhere)
skips even the call.
"""

from __future__ import annotations

from typing import Dict, Optional

from .metrics import (BYTES_BUCKETS, DURATION_BUCKETS, SERVE_LATENCY_BUCKETS,
                      Counter, Gauge, Histogram, MetricsRegistry)
from .spans import Span, SpanRecorder

#: PCIe traffic directions, in the order the catalog lists them.
DIRECTIONS = ("offload", "prefetch", "demand")

#: Compute-stall causes the executor distinguishes.
STALL_CAUSES = ("offload-sync", "prefetch-sync", "demand-fetch")

#: Result-cache event names (mirrors ``perf.cache.CacheStats`` fields).
CACHE_EVENTS = ("hit", "miss", "disk_hit", "store", "eviction")

#: Prefetch lifecycle events (claim made, claim rolled back, demand
#: fetch fallback) — the hit/miss/unclaim accounting of the Fig. 10
#: scheduler.
PREFETCH_EVENTS = ("claimed", "unclaimed", "demand")

#: Scheduler job lifecycle events.
JOB_EVENTS = ("admitted", "finished", "evicted", "rejected")

#: Serving request terminal outcomes (ladder: completed beats shed
#: beats rejected).
SERVE_OUTCOMES = ("completed", "shed", "rejected")

#: Preallocated deferred-log entry for the hottest hook (one claim per
#: backward step) — saves even the tuple construction.
_CLAIMED = ("claimed",)


class Instrumentation:
    """Metrics + span recording for one instrumented run."""

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self._registry = \
            registry if registry is not None else MetricsRegistry()
        self.spans = SpanRecorder()
        #: (timeline, stream names) pairs awaiting :meth:`flush`.
        self._deferred_streams: list = []
        #: Per-event hook records awaiting replay; hot hooks append
        #: here (via the pre-bound ``_push``) instead of touching
        #: metrics, and :meth:`_drain` replays them on first read.
        self._pending: list = []
        self._push = self._pending.append
        #: Per-request serving metrics, registered on first use (so a
        #: run that never serves exports none) and then bound per label
        #: value: each later call is one dict lookup, with no label
        #: normalisation, registry lookup or drain.
        self._serve_requests: Dict[str, Dict[str, Counter]] = {
            outcome: {} for outcome in SERVE_OUTCOMES}
        self._serve_latency: Dict[str, Histogram] = {}
        self._serve_queue_depth: Optional[Gauge] = None
        reg = self._registry

        # -- pre-bound hot-path metrics --------------------------------
        self._pool_live: Gauge = reg.gauge(
            "repro_pool_live_bytes",
            "Live bytes in the device pool (max = high-water mark)")
        self._pool_frag: Gauge = reg.gauge(
            "repro_pool_fragmentation_ratio",
            "1 - largest free extent / total free bytes")
        self._pool_capacity: Gauge = reg.gauge(
            "repro_pool_capacity_bytes",
            "Device pool capacity (budget) in force")
        self._pinned_peak: Gauge = reg.gauge(
            "repro_pinned_peak_bytes",
            "High-water mark of pinned host staging memory")

        self._pcie_bytes: Dict[str, Counter] = {}
        self._pcie_transfers: Dict[str, Counter] = {}
        self._dma_seconds: Dict[str, Histogram] = {}
        self._dma_bytes: Dict[str, Histogram] = {}
        for direction in DIRECTIONS:
            labels = {"direction": direction}
            self._pcie_bytes[direction] = reg.counter(
                "repro_pcie_bytes_total",
                "PCIe payload moved, split by transfer direction",
                labels)
            self._pcie_transfers[direction] = reg.counter(
                "repro_pcie_transfers_total",
                "Completed DMA transfers, split by direction", labels)
            self._dma_seconds[direction] = reg.histogram(
                "repro_dma_seconds", DURATION_BUCKETS,
                "Duration of completed DMA transfers", labels)
            self._dma_bytes[direction] = reg.histogram(
                "repro_dma_transfer_bytes", BYTES_BUCKETS,
                "Size distribution of completed DMA transfers", labels)

        self._dma_attempts: Dict[tuple, Counter] = {}
        for direction in DIRECTIONS:
            for result in ("ok", "fail"):
                self._dma_attempts[(direction, result)] = reg.counter(
                    "repro_dma_attempts_total",
                    "DMA attempts by direction and outcome",
                    {"direction": direction, "result": result})
        # One lookup per completed transfer: (bytes, transfers, ok
        # attempts, seconds histogram, bytes histogram) per direction.
        self._dma_by_direction = {
            direction: (self._pcie_bytes[direction],
                        self._pcie_transfers[direction],
                        self._dma_attempts[(direction, "ok")],
                        self._dma_seconds[direction],
                        self._dma_bytes[direction])
            for direction in DIRECTIONS
        }
        self._dma_backoffs: Counter = reg.counter(
            "repro_dma_backoffs_total",
            "Retry backoffs taken after failed DMA attempts")
        self._dma_backoff_seconds: Counter = reg.counter(
            "repro_dma_backoff_seconds_total",
            "Total time spent idling in retry backoff")

        self._stall_seconds: Dict[str, Histogram] = {}
        self._stall_events: Dict[str, Counter] = {}
        for cause in STALL_CAUSES:
            labels = {"cause": cause}
            self._stall_seconds[cause] = reg.histogram(
                "repro_stall_seconds", DURATION_BUCKETS,
                "Compute-stream stalls behind the memory stream", labels)
            self._stall_events[cause] = reg.counter(
                "repro_stall_events_total",
                "Compute-stream stall count by cause", labels)

        self._prefetch: Dict[str, Counter] = {
            event: reg.counter(
                "repro_prefetch_events_total",
                "Prefetch lifecycle: claims, rollbacks, demand fetches",
                {"event": event})
            for event in PREFETCH_EVENTS
        }
        self._prefetch_search: Dict[bool, Counter] = {
            hit: reg.counter(
                "repro_prefetch_search_total",
                "Fig. 10 findPrefetchLayer outcomes",
                {"result": "hit" if hit else "miss"})
            for hit in (True, False)
        }

        self._cache: Dict[str, Counter] = {
            event: reg.counter(
                "repro_cache_events_total",
                "Simulation result cache events", {"event": event})
            for event in CACHE_EVENTS
        }

        self._jobs: Dict[str, Counter] = {
            event: reg.counter(
                "repro_sched_jobs_total",
                "Scheduler job lifecycle events", {"event": event})
            for event in JOB_EVENTS
        }
        self._queueing: Histogram = reg.histogram(
            "repro_sched_queueing_seconds", DURATION_BUCKETS,
            "Submit (or requeue) to admission latency per job")
        self._jct: Histogram = reg.histogram(
            "repro_sched_jct_seconds", DURATION_BUCKETS,
            "Job completion time (submit to finish)")
        self._makespan: Gauge = reg.gauge(
            "repro_sched_makespan_seconds",
            "First submit to last completion across finished jobs")

    # ------------------------------------------------------------------
    # Deferred event log
    # ------------------------------------------------------------------
    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry, with pending hook events replayed.

        Every consumer (exporters, reports, tests) reads metrics
        through this property, so the hot hooks' deferral is
        invisible: by the time anyone looks, the arithmetic has
        happened.
        """
        if self._pending:
            self._drain()
        return self._registry

    def _drain(self) -> None:
        """Replay the pending per-event hook log into the metrics.

        All deferred events feed counters and histograms — commutative
        accumulations — so replay order is irrelevant to every exported
        value.
        """
        pending = self._pending
        self._pending = []
        self._push = self._pending.append
        dma = self._dma_by_direction
        attempts = self._dma_attempts
        for entry in pending:
            kind = entry[0]
            if kind == "dma":
                _, direction, nbytes, seconds = entry
                bytes_c, transfers_c, ok_c, seconds_h, bytes_h = \
                    dma[direction]
                bytes_c.value += nbytes
                transfers_c.value += 1.0
                ok_c.value += 1.0
                seconds_h.observe(seconds)
                bytes_h.observe(nbytes)
            elif kind == "stall":
                _, cause, seconds = entry
                self._stall_events[cause].value += 1.0
                self._stall_seconds[cause].observe(seconds)
            elif kind == "claimed":
                self._prefetch_search[True].value += 1.0
                self._prefetch["claimed"].value += 1.0
            elif kind == "search":
                self._prefetch_search[entry[1]].value += 1.0
            elif kind == "prefetch":
                self._prefetch[entry[1]].value += 1.0
            elif kind == "attempt":
                attempts[(entry[1], "ok" if entry[2] else "fail")] \
                    .value += 1.0
            elif kind == "streams":
                _, span, pairs = entry
                for stream, busy in pairs:
                    self.stream_totals(stream, busy,
                                       max(span - busy, 0.0))
            else:  # "backoff"
                self._dma_backoffs.value += 1.0
                self._dma_backoff_seconds.value += entry[1]

    # ------------------------------------------------------------------
    # Pool + pinned memory
    # ------------------------------------------------------------------
    def pool_sample(self, live_bytes: int, capacity: int,
                    fragmentation: float) -> None:
        """One pool-occupancy sample (pool transitions / end of run)."""
        self._pool_live.set(live_bytes)
        self._pool_capacity.set(capacity)
        self._pool_frag.set(fragmentation)

    def pool_peak(self, nbytes: int) -> None:
        """Exact allocator high-water mark.

        The executor reports the pool's own ``peak_bytes`` once per run
        instead of sampling on every alloc/free: same high-water number,
        none of the per-allocation hook traffic.
        """
        self._pool_live.set_max(nbytes)

    def pinned_peak(self, nbytes: int) -> None:
        self._pinned_peak.set(nbytes)

    # ------------------------------------------------------------------
    # DMA / PCIe
    # ------------------------------------------------------------------
    def pcie_transfer(self, direction: str, nbytes: int,
                      seconds: float) -> None:
        """One *completed* DMA transfer (also the successful attempt).

        A completed transfer *is* a successful DMA attempt, so this one
        hook ticks both families (at :meth:`_drain` time); call sites
        only report attempts separately when they fail.  The body is a
        single deferred-log append — these hooks fire per DMA on the
        simulator hot path, where even pre-bound counter math showed up
        once the compiled-plan core made iterations ~4x faster.
        """
        self._push(("dma", direction, nbytes, seconds))

    def dma_attempt(self, direction: str, ok: bool) -> None:
        self._push(("attempt", direction, ok))

    def dma_backoff(self, seconds: float) -> None:
        self._push(("backoff", seconds))

    def compression(self, raw_bytes: int, wire_bytes: int) -> None:
        """One cDMA-compressed offload: raw vs on-the-wire bytes.

        Created lazily (unlike the pre-bound DMA counters) so runs that
        never compress export an unchanged metric catalog — the golden
        obs fixtures for the plain policies stay byte-identical.
        """
        registry = self.registry
        registry.counter(
            "repro_compression_raw_bytes_total",
            "Uncompressed bytes behind cDMA-compressed offloads").value \
            += raw_bytes
        registry.counter(
            "repro_compression_wire_bytes_total",
            "Wire bytes actually moved by cDMA-compressed offloads"
        ).value += wire_bytes
        registry.counter(
            "repro_compression_transfers_total",
            "cDMA-compressed offload transfers").value += 1.0

    # ------------------------------------------------------------------
    # Executor
    # ------------------------------------------------------------------
    def stall(self, cause: str, seconds: float) -> None:
        self._push(("stall", cause, seconds))

    def prefetch_event(self, event: str) -> None:
        self._push(("prefetch", event))

    def prefetch_search(self, hit: bool) -> None:
        self._push(("search", hit))

    def prefetch_claimed(self) -> None:
        """A findPrefetchLayer search that found and claimed a layer.

        One hook for the (search hit, claim) pair — the two bookkeeping
        updates share a single dispatch (and, deferred, a single
        constant append).
        """
        self._push(_CLAIMED)

    def prefetch_searches(self, hits: int, misses: int) -> None:
        """Batched Fig. 10 search outcomes, reported once per run.

        The executor infers hit/miss from ``find_prefetch_layer``'s
        return value and counts in plain locals, so the per-backward-
        step search costs no hook dispatch at all; totals are identical
        to per-event :meth:`prefetch_claimed`/:meth:`prefetch_search`
        reporting.
        """
        if hits:
            self._prefetch_search[True].value += float(hits)
            self._prefetch["claimed"].value += float(hits)
        if misses:
            self._prefetch_search[False].value += float(misses)

    def stream_busy(self, span: float, pairs) -> None:
        """Final per-stream busy totals from incremental stream clocks.

        ``pairs`` is a tuple of ``(stream name, busy seconds)`` read
        straight off each :class:`~repro.sim.stream.SimStream`'s
        running ``busy_seconds`` total, so the hook is one deferred-log
        append — no timeline retained, no O(events) interval merge.
        The totals are bit-identical to ``Timeline.busy_times`` (see
        the invariant documented on ``SimStream.busy_seconds``).
        """
        self._push(("streams", span, pairs))

    def run_streams(self, timeline, *streams: str) -> None:
        """Per-stream busy/idle split from a finished timeline.

        Takes the (finished, read-only) timeline rather than precomputed
        numbers and *defers* the O(events) interval merge to
        :meth:`flush` — neither the uninstrumented path nor the
        simulated region of an instrumented run pays for it; the cost
        lands at export time.
        """
        self._deferred_streams.append((timeline, streams))

    def flush(self) -> "Instrumentation":
        """Resolve deferred end-of-run summaries into their gauges.

        Idempotent — each deferred timeline is consumed once; the export
        paths call this before reading the registry.
        """
        if self._pending:
            self._drain()
        deferred, self._deferred_streams = self._deferred_streams, []
        for timeline, streams in deferred:
            span = timeline.span
            busy = timeline.busy_times(*streams)
            for stream in streams:
                self.stream_totals(stream, busy[stream],
                                   max(span - busy[stream], 0.0))
        return self

    def stream_totals(self, stream: str, busy_seconds: float,
                      idle_seconds: float) -> None:
        """Final per-stream busy/idle split (recorded once per run)."""
        self.registry.gauge(
            "repro_stream_busy_seconds",
            "Union of productive intervals per stream",
            {"stream": stream}).set(busy_seconds)
        self.registry.gauge(
            "repro_stream_idle_seconds",
            "Timeline span minus busy time per stream",
            {"stream": stream}).set(idle_seconds)

    # ------------------------------------------------------------------
    # Result cache
    # ------------------------------------------------------------------
    def cache_event(self, event: str) -> None:
        self._cache[event].value += 1.0

    # ------------------------------------------------------------------
    # Faults
    # ------------------------------------------------------------------
    def fault_event(self, kind: str, outcome: str) -> None:
        self.registry.counter(
            "repro_faults_total",
            "Injected faults by family and resolution",
            {"kind": kind, "outcome": outcome}).inc()

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def job_event(self, event: str) -> None:
        self._jobs[event].inc()

    def job_admitted(self, wait_seconds: float, rung: str) -> None:
        self._jobs["admitted"].inc()
        self._queueing.observe(wait_seconds)
        self.registry.counter(
            "repro_sched_admissions_total",
            "Admissions by degradation-ladder rung",
            {"rung": rung}).inc()

    def job_finished(self, jct_seconds: float) -> None:
        self._jobs["finished"].inc()
        self._jct.observe(jct_seconds)

    def sched_makespan(self, seconds: float) -> None:
        self._makespan.set(seconds)

    # ------------------------------------------------------------------
    # Cluster / fleet
    # ------------------------------------------------------------------
    def fleet_summary(self, utilization: float, fairness: float,
                      gpus: int) -> None:
        """End-of-run fleet rollup from the cluster scheduler.

        Per-job lifecycle (admissions, JCT histogram) flows through the
        shared scheduler hooks above; this adds the cluster-only gauges.
        """
        self.registry.gauge(
            "repro_fleet_gpus",
            "GPUs in the simulated cluster").set(gpus)
        self.registry.gauge(
            "repro_fleet_utilization",
            "Occupied GPU-seconds over available GPU-seconds"
        ).set(utilization)
        self.registry.gauge(
            "repro_fleet_fairness_jain",
            "Jain's fairness index over finished jobs' slowdowns"
        ).set(fairness)

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def serve_request(self, model: str, outcome: str) -> None:
        """One request's terminal outcome (see :data:`SERVE_OUTCOMES`)."""
        bound = self._serve_requests[outcome]
        metric = bound.get(model)
        if metric is None:
            metric = bound[model] = self._registry.counter(
                "repro_serve_requests_total",
                "Serving requests by model and terminal outcome",
                {"model": model, "outcome": outcome})
        metric.value += 1.0

    def serve_latency(self, model: str, seconds: float) -> None:
        """End-to-end latency (arrival to completion) of one request.

        These per-model histograms are the source of truth for the SLO
        report: p50/p95/p99 come from :meth:`Histogram.quantile` and
        attainment from :meth:`Histogram.fraction_below`.
        """
        metric = self._serve_latency.get(model)
        if metric is None:
            metric = self._serve_latency[model] = self._registry.histogram(
                "repro_serve_latency_seconds", SERVE_LATENCY_BUCKETS,
                "End-to-end request latency (arrival to completion)",
                {"model": model})
        metric.observe(seconds)

    def serve_streamed(self, stall_seconds: float, nbytes: int,
                       dma_seconds: float) -> None:
        """One served request's demand-fetch stall and streamed-weight DMA.

        Ticks the same families as :meth:`stall` (``demand-fetch``) and
        :meth:`pcie_transfer` (``demand``), but at once rather than
        through the deferred log, so a serving run leaves no log behind.
        Anything already logged is replayed first, which keeps every
        metric's update order what deferral would give.
        """
        if self._pending:
            self._drain()
        if stall_seconds > 0:
            self._stall_events["demand-fetch"].value += 1.0
            self._stall_seconds["demand-fetch"].observe(stall_seconds)
        if dma_seconds > 0:
            bytes_c, transfers_c, ok_c, seconds_h, bytes_h = \
                self._dma_by_direction["demand"]
            bytes_c.value += nbytes
            transfers_c.value += 1.0
            ok_c.value += 1.0
            seconds_h.observe(dma_seconds)
            bytes_h.observe(nbytes)

    def serve_cold_start(self, model: str, seconds: float) -> None:
        """One model install (persistent weights DMA'd on-device)."""
        self._registry.counter(
            "repro_serve_cold_starts_total",
            "Model installs (cold starts) by model", {"model": model}).inc()
        self._registry.histogram(
            "repro_serve_cold_start_seconds", DURATION_BUCKETS,
            "Cold-start install latency", {"model": model}).observe(seconds)

    def serve_queue_depth(self, depth: int) -> None:
        """Pending-queue depth sample (max is the high-water mark)."""
        metric = self._serve_queue_depth
        if metric is None:
            metric = self._serve_queue_depth = self._registry.gauge(
                "repro_serve_queue_depth",
                "Pending request queue depth (max = high-water)")
        metric.set(depth)

    def serve_window_shrink(self, model: str) -> None:
        """Overload ladder rung 1 fired: a model's window halved."""
        self._registry.counter(
            "repro_serve_window_shrinks_total",
            "Demand-layering window shrinks under overload",
            {"model": model}).inc()

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def span(self, name: str, lane: str, start: float, end: float,
             category: str = "span", **attrs) -> Optional[Span]:
        return self.spans.record(name, lane, start, end,
                                 category=category, **attrs)


class NullInstrumentation(Instrumentation):
    """Records nothing: every hook is a no-op.

    The registry/span recorder still exist (and stay empty) so callers
    can treat null and live instrumentation uniformly.
    """

    def pool_sample(self, live_bytes, capacity, fragmentation):  # noqa: D102
        pass

    def pool_peak(self, nbytes):
        pass

    def pinned_peak(self, nbytes):
        pass

    def pcie_transfer(self, direction, nbytes, seconds):
        pass

    def dma_attempt(self, direction, ok):
        pass

    def dma_backoff(self, seconds):
        pass

    def compression(self, raw_bytes, wire_bytes):
        pass

    def stall(self, cause, seconds):
        pass

    def prefetch_event(self, event):
        pass

    def prefetch_search(self, hit):
        pass

    def prefetch_claimed(self):
        pass

    def prefetch_searches(self, hits, misses):
        pass

    def stream_busy(self, span, pairs):
        pass

    def run_streams(self, timeline, *streams):
        pass

    def stream_totals(self, stream, busy_seconds, idle_seconds):
        pass

    def cache_event(self, event):
        pass

    def fault_event(self, kind, outcome):
        pass

    def job_event(self, event):
        pass

    def job_admitted(self, wait_seconds, rung):
        pass

    def job_finished(self, jct_seconds):
        pass

    def sched_makespan(self, seconds):
        pass

    def fleet_summary(self, utilization, fairness, gpus):
        pass

    def serve_request(self, model, outcome):
        pass

    def serve_latency(self, model, seconds):
        pass

    def serve_streamed(self, stall_seconds, nbytes, dma_seconds):
        pass

    def serve_cold_start(self, model, seconds):
        pass

    def serve_queue_depth(self, depth):
        pass

    def serve_window_shrink(self, model):
        pass

    def span(self, name, lane, start, end, category="span", **attrs):
        return None
