"""Forward-only (inference) memory management — the paper's Figure 7.

During inference no feature map needs to survive for a backward pass,
so a layer-wise manager can release every X at its last consumer (the
black-X arrows of Figure 7) with no offloading at all.  The baseline,
by contrast, still allocates "the sum of all green (W) and red (X)
arrows" network-wide (Figure 2).  This executor quantifies that gap —
the inference-side counterpart of Figure 11.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from ..alloc.pool import Allocation, LiveByteCounter
from ..graph.layer import LayerKind
from ..graph.network import Network
from ..hw.config import SystemConfig
from ..kernels.latency import LatencyModel
from ..sim.timeline import EventKind
from .algo_config import AlgoConfig
from .liveness import LivenessAnalysis

if TYPE_CHECKING:
    from .executor import IterationResult


def _validate_inference_batch(network: Network) -> None:
    """Reject non-positive batch sizes with the same contract as
    :class:`repro.sched.Job`.

    The zoo's :func:`~repro.zoo.build` and :class:`~repro.graph.tensor.
    TensorSpec` already guard their own paths; this guards hand-built
    networks handed straight to the inference simulators, so the error
    names the actual problem instead of surfacing as a downstream
    shape/latency anomaly.
    """
    batch = network.input_node.output_spec.batch
    if batch <= 0:
        raise ValueError(f"batch_size must be positive, got {batch}")


def weight_load_bytes(network: Network) -> Dict[int, int]:
    """Per-layer weight bytes an inference pass must have on-device.

    The single accounting path shared by :func:`simulate_inference`
    (which exposes it on its result), the demand-layering executor in
    :mod:`repro.serve.layering` (which streams exactly these bytes
    through the sliding window) and ``bench_ext_inference.py``.  Keys
    are layer indices; only layers that own weights appear.
    """
    return {
        node.index: node.weight_bytes
        for node in network
        if node.weight_bytes
    }


def baseline_inference_bytes(network: Network, algos: AlgoConfig) -> int:
    """Network-wide inference allocation: all Xs + W + shared WS."""
    _validate_inference_batch(network)
    liveness = LivenessAnalysis(network)
    return (liveness.total_feature_map_bytes()
            + network.total_weight_bytes()
            + algos.max_workspace_bytes())


def simulate_inference(
    network: Network,
    system: SystemConfig,
    algos: AlgoConfig,
) -> IterationResult:
    """One forward pass under layer-wise release (Figure 7).

    Returns an :class:`IterationResult` with ``policy_label``
    ``"inference"``; backward-related fields are zero and
    ``weight_load_bytes`` carries the per-layer weight accounting the
    serving subsystem's demand-layering executor reuses.
    """
    # Serving calls only the two helpers above, so what this simulator
    # alone needs is imported on its first call.
    from ..alloc.stats import UsageTracker
    from ..sim.stream import make_stream_pair
    from .executor import IterationResult, _feature_extraction_time

    _validate_inference_batch(network)
    latency = LatencyModel(system.gpu)
    liveness = LivenessAnalysis(network)
    pool = LiveByteCounter()
    compute, _memory, timeline = make_stream_pair()
    usage = UsageTracker()
    device: Dict[int, Allocation] = {}

    def sample() -> None:
        usage.record(compute.ready_time, pool.live_bytes)

    persistent = 0
    external = 0
    for node in network:
        if not node.weight_bytes:
            continue
        if node.is_feature_extraction:
            pool.alloc(node.weight_bytes, f"W[{node.name}]")
            sample()
        else:
            external += node.weight_bytes
        persistent += node.weight_bytes

    for index in network.forward_schedule():
        node = network[index]
        if not node.in_place:
            storage = liveness.storage_of(index)
            device[storage.owner] = pool.alloc(storage.nbytes,
                                               f"Y[{node.name}]")
            sample()
        if node.kind is not LayerKind.INPUT:
            workspace = None
            ws_bytes = algos.workspace_bytes(node)
            if ws_bytes:
                workspace = pool.alloc(ws_bytes, f"WS[{node.name}]")
                sample()
            timing = latency.forward(network, node, algos.profile(node))
            compute.push(EventKind.FORWARD, node.name, timing.seconds,
                         nbytes=int(timing.dram_bytes), layer_index=index)
            if workspace is not None:
                pool.free(workspace)
                sample()
        # Figure 7: free every input at its last consumer, full stop.
        for storage in liveness.input_storages(index):
            if storage.forward_release_at == index:
                pool.free(device.pop(storage.owner))
                sample()

    # The network output remains live for the caller; free it last.
    for allocation in list(device.values()):
        pool.free(allocation)
    device.clear()
    usage.record(timeline.end_time, pool.live_bytes)

    peak = usage.max_bytes
    total_peak = peak + external
    trainable = total_peak <= system.gpu.memory_bytes
    return IterationResult(
        network_name=network.name,
        policy_label="inference",
        algo_label=algos.label,
        trainable=trainable,
        failure=None if trainable else "inference footprint exceeds GPU",
        timeline=timeline,
        usage=usage,
        managed_max_bytes=peak,
        managed_avg_bytes=usage.average_bytes,
        external_bytes=external,
        persistent_bytes=persistent,
        total_time=timeline.span,
        feature_extraction_time=_feature_extraction_time(network, timeline),
        offload_bytes=0,
        prefetch_bytes=0,
        pinned_peak_bytes=0,
        compute_stall_seconds=0.0,
        weight_load_bytes=weight_load_bytes(network),
    )
