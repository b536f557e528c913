"""cuDNN-style kernel models: conv algorithms, FLOP counts, latencies."""

from .._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "AlgoProfile": "conv_algos",
    "ConvAlgo": "conv_algos",
    "MEMORY_OPTIMAL_ALGO": "conv_algos",
    "algo_applicable": "conv_algos",
    "memory_optimal_profile": "conv_algos",
    "next_cheaper_algo": "conv_algos",
    "performance_optimal_algo": "conv_algos",
    "profile_algorithms": "conv_algos",
    "time_multiplier": "conv_algos",
    "workspace_bytes": "conv_algos",
    "KernelCost": "flops",
    "backward_cost": "flops",
    "forward_cost": "flops",
    "is_compute_bound": "flops",
    "KERNEL_LAUNCH_OVERHEAD": "latency",
    "KernelTiming": "latency",
    "LatencyModel": "latency",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
