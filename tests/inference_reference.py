"""The hand-written inference loop, as an oracle for the plan walk.

:func:`repro.core.inference.simulate_inference` runs inference as the
forward-only run of the timed :class:`~repro.core.walk.PlanWalk`
domain: it reads kernel seconds, workspaces and release lists from the
compiled plan and frees every last-consumed input at its reader.

:func:`reference_inference` keeps the loop that preceded it: its own
liveness analysis, :class:`~repro.kernels.latency.LatencyModel` timings,
storage-owner dict and usage sampling, layer by layer in the network's
forward schedule.  ``test_inference_differential.py`` holds the walk to
it field for field.
"""

from __future__ import annotations

from typing import Dict

from repro.alloc.pool import Allocation, LiveByteCounter
from repro.alloc.stats import UsageTracker
from repro.core.algo_config import AlgoConfig
from repro.core.executor import IterationResult, _feature_extraction_time
from repro.core.inference import _validate_inference_batch, weight_load_bytes
from repro.core.liveness import liveness_of
from repro.graph.layer import LayerKind
from repro.graph.network import Network
from repro.hw.config import SystemConfig
from repro.kernels.latency import LatencyModel
from repro.sim.stream import make_stream_pair
from repro.sim.timeline import EventKind


def reference_inference(
    network: Network,
    system: SystemConfig,
    algos: AlgoConfig,
) -> IterationResult:
    """One forward pass under layer-wise release (Figure 7)."""
    _validate_inference_batch(network)
    latency = LatencyModel(system.gpu)
    liveness = liveness_of(network)
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
        feature_extraction_time=_feature_extraction_time(
            timeline, {n.index for n in network.classifier_nodes}),
        offload_bytes=0,
        prefetch_bytes=0,
        pinned_peak_bytes=0,
        compute_stall_seconds=0.0,
        weight_load_bytes=weight_load_bytes(network),
    )
