"""Reporting: table rendering and per-figure experiment drivers.

Names resolve on first use (:mod:`repro._lazy`), so the table helpers
that ``serve``, ``sched`` and ``cluster`` print with do not load the
figure drivers and the simulators behind them.
"""

from .._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "FigureResult": "figures",
    "fig01_baseline_usage": "figures",
    "fig04_breakdown": "figures",
    "fig05_per_layer": "figures",
    "fig06_reuse_distance": "figures",
    "fig09_timeline": "figures",
    "fig11_memory_usage": "figures",
    "fig12_offload_size": "figures",
    "fig13_dram_bandwidth": "figures",
    "fig14_performance": "figures",
    "fig15_very_deep": "figures",
    "headline": "figures",
    "power_section": "figures",
    "format_bar": "tables",
    "format_bar_chart": "tables",
    "format_table": "tables",
    "gb_str": "tables",
    "mb_str": "tables",
    "ms_str": "tables",
    "pct_str": "tables",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
