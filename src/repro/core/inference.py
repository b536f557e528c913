"""Forward-only (inference) memory management — the paper's Figure 7.

During inference no feature map needs to survive for a backward pass,
so a layer-wise manager can release every X at its last consumer (the
black-X arrows of Figure 7) with no offloading at all.  The baseline,
by contrast, still allocates "the sum of all green (W) and red (X)
arrows" network-wide (Figure 2).  :func:`simulate_inference` quantifies
that gap — the inference-side counterpart of Figure 11 — as the
forward-only run of the timed plan walk
(:meth:`repro.core.walk.PlanWalk.run_forward_only`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from ..graph.network import Network
from ..hw.config import SystemConfig
from .algo_config import AlgoConfig
from .liveness import liveness_of

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
    liveness = liveness_of(network)
    return (liveness.total_feature_map_bytes()
            + network.total_weight_bytes()
            + algos.max_workspace_bytes())


def simulate_inference(
    network: Network,
    system: SystemConfig,
    algos: AlgoConfig,
) -> IterationResult:
    """One forward pass under layer-wise release (Figure 7).

    The forward-only run of the timed plan walk: no policy offloads,
    every last-consumed input is dropped at its reader, and only the
    feature-extraction weights (no weight gradients) are placed in the
    pool.  Returns an :class:`IterationResult` with ``policy_label``
    ``"inference"``; backward-related fields are zero and
    ``weight_load_bytes`` carries the per-layer weight accounting the
    serving subsystem's demand-layering executor reuses.
    """
    # Serving calls only the two helpers above, so the walk is imported
    # on this simulator's first call.
    from .executor import IterationResult, _VDNNSimulation, \
        _feature_extraction_time
    from .plan import compiled_plan
    from .policy import TransferPolicy

    _validate_inference_batch(network)
    plan = compiled_plan(network, system, algos)
    sim = _VDNNSimulation(
        network, system, TransferPolicy.none(), algos, plan,
        drop=plan.candidate_owners(frozenset(plan.forward_at)))
    for item in plan.persistent:
        sim._alloc(item.nbytes, item.w_tag, buffer=item.w_buf,
                   layer=item.index, persistent=True)
    sim.run_forward_only()
    sim.usage.record(sim.timeline.end_time, sim.pool.live_bytes)

    # Classifier weights live outside the pool (Section IV-A).
    weights = weight_load_bytes(network)
    persistent = sum(weights.values())
    external = persistent - sum(item.nbytes for item in plan.persistent)
    peak = sim.usage.max_bytes
    trainable = peak + external <= system.gpu.memory_bytes
    return IterationResult(
        network_name=network.name,
        policy_label="inference",
        algo_label=algos.label,
        trainable=trainable,
        failure=None if trainable else "inference footprint exceeds GPU",
        timeline=sim.timeline,
        usage=sim.usage,
        managed_max_bytes=peak,
        managed_avg_bytes=sim.usage.average_bytes,
        external_bytes=external,
        persistent_bytes=persistent,
        total_time=sim.timeline.span,
        feature_extraction_time=_feature_extraction_time(
            sim.timeline, plan.classifier_indices),
        offload_bytes=0,
        prefetch_bytes=0,
        pinned_peak_bytes=0,
        compute_stall_seconds=0.0,
        weight_load_bytes=weights,
    )
