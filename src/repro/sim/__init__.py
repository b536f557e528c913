"""Two-stream execution simulation: timelines, streams, power."""

from .._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "PowerModel": "power",
    "PowerReport": "power",
    "analyze_power": "power",
    "JOB_STREAM_PREFIX": "trace",
    "MODEL_STREAM_PREFIX": "trace",
    "job_lane_name": "trace",
    "lane_name": "trace",
    "save_trace": "trace",
    "timeline_to_trace_events": "trace",
    "COMPUTE_STREAM": "stream",
    "MEMORY_STREAM": "stream",
    "SimStream": "stream",
    "make_stream_pair": "stream",
    "EmptyTimelineError": "timeline",
    "EventKind": "timeline",
    "Timeline": "timeline",
    "TimelineEvent": "timeline",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
