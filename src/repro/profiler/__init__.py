"""Profiling: memory, timing and bandwidth analyses behind the figures."""

from .._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "BandwidthRow": "bandwidth",
    "dram_bandwidth_profile": "bandwidth",
    "worst_case_interference": "bandwidth",
    "BaselineProfile": "memory",
    "LayerMemoryRow": "memory",
    "baseline_memory_profile": "memory",
    "feature_extraction_share": "memory",
    "memory_breakdown": "memory",
    "per_layer_profile": "memory",
    "LayerTimingRow": "timing",
    "layer_timing_profile": "timing",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
