"""Observability layer: unified metrics + span tracing.

The paper's evaluation is observational (per-layer memory, offload
traffic, PCIe bandwidth); this package makes those quantities first-
class instead of per-figure one-offs.  One :class:`Instrumentation`
object is threaded through the executor, scheduler, prefetcher, result
cache and fault injector; it accumulates counters/gauges/histograms in
a :class:`MetricsRegistry` and phase/lifecycle :class:`Span` records,
both exported deterministically (Prometheus text, sorted-keys JSON,
Chrome-trace lanes).

Instrumentation is **bit-neutral**: every simulated metric, timeline
and report is byte-identical with observability on or off — see
``tests/test_obs_differential.py`` and docs/observability.md.
"""

from .._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "metrics_dict": "export",
    "metrics_json": "export",
    "prometheus_text": "export",
    "CACHE_EVENTS": "instrument",
    "DIRECTIONS": "instrument",
    "JOB_EVENTS": "instrument",
    "PREFETCH_EVENTS": "instrument",
    "SERVE_OUTCOMES": "instrument",
    "STALL_CAUSES": "instrument",
    "Instrumentation": "instrument",
    "NullInstrumentation": "instrument",
    "BYTES_BUCKETS": "metrics",
    "DURATION_BUCKETS": "metrics",
    "SERVE_LATENCY_BUCKETS": "metrics",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricError": "metrics",
    "MetricsRegistry": "metrics",
    "make_labels": "metrics",
    "SPAN_PROCESS": "spans",
    "Span": "spans",
    "SpanRecorder": "spans",
    "spans_to_trace_events": "spans",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
