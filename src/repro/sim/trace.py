"""Export timelines to the Chrome trace-event format.

``chrome://tracing`` / Perfetto render the two-stream execution exactly
like the paper's Figure 9: one row per CUDA stream, offloads overlapping
forward kernels, prefetches overlapping backward kernels, stalls shaded
on the compute stream.  The memory curve is exported as counter events
so the same trace shows pool occupancy over time.

Multi-tenant schedules use one *process lane per job*: any stream named
``job:<name>`` (the convention of :mod:`repro.sched.scheduler`) is
promoted to its own trace process, so an N-job timeline renders as N
stacked rows — one per tenant — instead of N threads crammed into one
process group.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, List, Optional

from .timeline import EventKind, Timeline

if TYPE_CHECKING:
    from ..alloc.stats import UsageTracker

_CATEGORY = {
    EventKind.FORWARD: "compute",
    EventKind.BACKWARD: "compute",
    EventKind.UPDATE: "compute",
    EventKind.OFFLOAD: "transfer",
    EventKind.PREFETCH: "transfer",
    EventKind.STALL: "stall",
    EventKind.RUN: "job",
    EventKind.FAULT: "fault",
    EventKind.RETRY: "fault",
}

#: Stream-name prefix that promotes a stream to its own process lane.
JOB_STREAM_PREFIX = "job:"

#: Serving's per-model streams get the same per-process promotion.
MODEL_STREAM_PREFIX = "model:"

#: All prefixes promoted to dedicated process lanes.
LANE_PREFIXES = (JOB_STREAM_PREFIX, MODEL_STREAM_PREFIX)


def job_lane_name(stream: str) -> Optional[str]:
    """The job name of a per-job stream, or None for ordinary streams."""
    if stream.startswith(JOB_STREAM_PREFIX):
        return stream[len(JOB_STREAM_PREFIX):]
    return None


def lane_name(stream: str) -> Optional[str]:
    """The lane name of any promoted stream (``job:`` or ``model:``),
    or None for ordinary streams rendered as threads of process 0."""
    for prefix in LANE_PREFIXES:
        if stream.startswith(prefix):
            return stream[len(prefix):]
    return None


def timeline_to_trace_events(
    timeline: Timeline,
    usage: Optional[UsageTracker] = None,
    process_name: str = "vDNN",
    spans: Optional[List] = None,
) -> List[dict]:
    """Convert a timeline (+ optional memory curve) to trace events.

    Ordinary streams become threads of process 0; ``job:<name>`` streams
    each get a dedicated process (pid 1..N) named after the job, so
    multi-tenant timelines render one row per job.  ``spans`` (a list of
    :class:`repro.obs.Span`) adds one extra process whose threads are
    the span lanes — phases and job lifecycles lined up on the same
    time axis as the stream rows.
    """
    streams = timeline.streams()
    plain = [s for s in streams if lane_name(s) is None]
    jobs = [s for s in streams if lane_name(s) is not None]

    events: List[dict] = [{
        "name": "process_name", "ph": "M", "pid": 0,
        "args": {"name": process_name},
    }]
    pid_of = {stream: 0 for stream in plain}
    tid_of = {}
    for tid, stream in enumerate(plain):
        tid_of[stream] = tid
        events.append({
            "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
            "args": {"name": stream},
        })
    for lane, stream in enumerate(jobs, start=1):
        pid_of[stream] = lane
        tid_of[stream] = 0
        events.append({
            "name": "process_name", "ph": "M", "pid": lane,
            "args": {"name": lane_name(stream)},
        })

    for event in timeline.events:
        events.append({
            "name": f"{event.kind.value} {event.label}",
            "cat": _CATEGORY.get(event.kind, "sched"),
            "ph": "X",
            "pid": pid_of[event.stream],
            "tid": tid_of[event.stream],
            "ts": event.start * 1e6,        # trace format uses microseconds
            "dur": event.duration * 1e6,
            "args": {"bytes": event.nbytes, "layer": event.layer_index},
        })

    if usage is not None:
        for time, live_bytes in usage.curve():
            events.append({
                "name": "pool bytes",
                "ph": "C",
                "pid": 0,
                "ts": time * 1e6,
                "args": {"live": live_bytes},
            })

    if spans:
        from ..obs import spans_to_trace_events

        events.extend(spans_to_trace_events(spans, pid=len(jobs) + 1))
    return events


def save_trace(
    path: str,
    timeline: Timeline,
    usage: Optional[UsageTracker] = None,
    process_name: str = "vDNN",
    spans: Optional[List] = None,
) -> None:
    """Write a ``.json`` Chrome/Perfetto trace file."""
    events = timeline_to_trace_events(timeline, usage, process_name, spans)
    with open(path, "w") as handle:
        json.dump({"traceEvents": events,
                   "displayTimeUnit": "ms"}, handle)
