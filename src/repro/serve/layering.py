"""Demand-layering service planner: weights streamed against compute.

For training, vDNN virtualizes *feature maps*; for inference there is no
backward pass, so the big persistent tenant is the *weights*.  Demand
layering (the serving analogue of vDNN's prefetch pipeline) streams each
layer's weights over PCIe into a small sliding window just ahead of that
layer's kernel, overlapping DMA with the compute of earlier layers.  A
model whose weights dwarf the device budget can then serve from a
window a fraction of that size — paying only where the PCIe roofline
(DMA time per layer) exceeds the compute roofline.

Three residency policies, per model:

* ``resident`` — classic serving: all weights stay on-device
  (persistent footprint = total weights), cold start pays the full
  upload once, steady-state requests never touch PCIe.
* ``layered`` — nothing persistent; every request streams all weights
  through a window of ``window_bytes``, pipelined layer-by-layer
  against compute.  Footprint shrinks to window + activation peak;
  latency inflates by whatever DMA the pipeline cannot hide.
* ``pinned`` — hybrid: the largest layers (greedy, up to
  ``pinned_bytes``) stay resident, the rest stream.  Pins the layers
  with the worst DMA-to-compute ratios first, since streaming cost
  scales with bytes while compute does not.

The planner is analytic and deterministic: it runs the same pipeline
recurrence as a discrete-event schedule would, layer by layer in the
forward schedule, and returns a :class:`ServicePlan` the server replays
per request.  Shrinking the window (the first rung of the overload
ladder) is just re-planning with a smaller ``window_bytes``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, List, Tuple

from ..core.algo_config import AlgoConfig
from ..core.inference import _validate_inference_batch, weight_load_bytes
from ..core.liveness import liveness_of
from ..core.plan import ForwardStep, compiled_plan
from ..graph.layer import LayerKind
from ..graph.network import Network
from ..hw.config import SystemConfig

#: Residency policies accepted by :func:`plan_service`.
RESIDENCY_POLICIES = ("resident", "layered", "pinned")


class ServePlanError(ValueError):
    """Raised when a service plan cannot be built as requested."""


@dataclass(frozen=True)
class ServicePlan:
    """Precomputed per-request cost model for one (model, residency).

    Attributes:
        model: network name the plan describes.
        residency: one of :data:`RESIDENCY_POLICIES`.
        weight_bytes: total model weights.
        persistent_bytes: weights that stay on-device between requests
            (all of them for ``resident``, the pinned set for
            ``pinned``, zero for ``layered``).
        streamed_bytes: weights each request streams over PCIe.
        window_bytes: effective sliding-window size.  May exceed the
            requested window: it is clamped *up* to the largest single
            streamed layer so the pipeline recurrence is always
            feasible (documented rather than failed, since a window
            that cannot hold one layer can never make progress).
        activation_bytes: peak transient activations + workspace of one
            forward pass (layer-wise release, Figure 7 shape).
        footprint_bytes: persistent + window + activations — what the
            pool must actually hold to serve one request.
        cold_start_seconds: one-time install cost (DMA of persistent
            weights when the model is brought on-device).
        compute_seconds: sum of per-layer kernel times.
        dma_seconds: sum of per-layer DMA times for streamed weights.
        stall_seconds: compute idle the pipeline could not hide.
        service_seconds: end-to-end warm latency of one request
            (= compute + stall; equals compute when nothing streams).
        pinned_layers: indices pinned on-device (``pinned`` only).
    """

    model: str
    residency: str
    weight_bytes: int
    persistent_bytes: int
    streamed_bytes: int
    window_bytes: int
    activation_bytes: int
    cold_start_seconds: float
    compute_seconds: float
    dma_seconds: float
    stall_seconds: float
    service_seconds: float
    pinned_layers: Tuple[int, ...] = ()

    @property
    def footprint_bytes(self) -> int:
        """Device bytes needed to hold the model and serve one request."""
        return self.persistent_bytes + self.window_bytes + self.activation_bytes


def activation_peak_bytes(network: Network, algos: AlgoConfig) -> int:
    """Peak transient bytes of one layer-wise-release forward pass.

    Mirrors :func:`repro.core.inference.simulate_inference`'s allocation
    shape — Y allocated at its producer, workspace live only during the
    kernel, X freed at its last consumer — without running the latency
    model.  This is the activation term of a serving footprint.
    :func:`plan_service` reads the same peak off the compiled plan; this
    liveness-based walk is the independent reference the static
    verifier (SP406) audits it against.
    """
    liveness = liveness_of(network)
    live = 0
    peak = 0
    held: Dict[int, int] = {}
    for index in network.forward_schedule():
        node = network[index]
        if not node.in_place:
            storage = liveness.storage_of(index)
            held[storage.owner] = storage.nbytes
            live += storage.nbytes
        workspace = 0
        if node.kind is not LayerKind.INPUT:
            workspace = algos.workspace_bytes(node)
        peak = max(peak, live + workspace)
        for storage in liveness.input_storages(index):
            if storage.forward_release_at == index:
                live -= held.pop(storage.owner, storage.nbytes)
    return peak


def resident_footprint_bytes(network: Network, system: SystemConfig,
                             algos: AlgoConfig) -> int:
    """``plan_service(..., "resident").footprint_bytes`` without the
    plan: every weight plus the forward activation peak (a resident
    plan streams nothing, so its window is empty)."""
    _validate_inference_batch(network)
    steps = compiled_plan(network, system, algos).forward
    return sum(weight_load_bytes(network).values()) \
        + _forward_activation_peak(steps)


def _forward_activation_peak(steps: Tuple[ForwardStep, ...]) -> int:
    """:func:`activation_peak_bytes`, read off a plan's forward steps.

    Same walk — allocate each out-of-place Y, count the kernel's
    workspace, free every input whose last forward reader this is —
    with the liveness facts the plan already compiled.
    """
    live = 0
    peak = 0
    for step in steps:
        if step.alloc_rec is not None:
            live += step.alloc_rec.nbytes
        peak = max(peak, live + step.ws_bytes)
        for rec in step.offload_candidates + step.dead_releases:
            live -= rec.nbytes
    return peak


def _pick_pinned(
    weights: Dict[int, int], pinned_bytes: int
) -> Tuple[int, ...]:
    """Greedy pin: largest weights first (ties: lower layer index)."""
    order = sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))
    pinned: List[int] = []
    budget = pinned_bytes
    for index, nbytes in order:
        if nbytes <= budget:
            pinned.append(index)
            budget -= nbytes
    return tuple(sorted(pinned))


def plan_service(
    network: Network,
    system: SystemConfig,
    algos: AlgoConfig,
    residency: str = "resident",
    window_bytes: int = 64 * (1 << 20),
    pinned_bytes: int = 0,
) -> ServicePlan:
    """Build the :class:`ServicePlan` for one model under one policy.

    The ``layered``/``pinned`` pipeline is a two-resource recurrence
    over the forward schedule: one serial DMA engine issuing loads in
    layer order (a load may start only when the window has room, which
    may mean waiting for an earlier layer's compute to finish and
    release its weights) and one serial compute engine (a kernel may
    start only when its weights have landed).  Stall is the compute
    idle this pipeline fails to hide.
    """
    if residency not in RESIDENCY_POLICIES:
        raise ServePlanError(
            f"unknown residency {residency!r}; "
            f"policies: {', '.join(RESIDENCY_POLICIES)}")
    if window_bytes <= 0 and residency != "resident":
        raise ServePlanError(
            f"window_bytes must be positive, got {window_bytes}")
    _validate_inference_batch(network)

    weights = weight_load_bytes(network)
    total_weights = sum(weights.values())
    # Kernel seconds and liveness come from the cached compiled plan:
    # the forward steps hold both, in schedule order.
    steps = compiled_plan(network, system, algos).forward
    compute_total = sum(step.seconds for step in steps)
    activations = _forward_activation_peak(steps)
    dma = system.pcie.dma_time

    if residency == "pinned":
        pinned = _pick_pinned(weights, pinned_bytes)
    elif residency == "resident":
        pinned = tuple(sorted(weights))
    else:
        pinned = ()
    pinned_set = frozenset(pinned)
    persistent = sum(weights[i] for i in pinned)
    streamed = {i: w for i, w in weights.items() if i not in pinned_set}
    streamed_total = sum(streamed.values())
    cold_start = sum(dma(weights[i]) for i in pinned)

    if not streamed:
        # Pure resident: requests never touch PCIe, window unused.
        return ServicePlan(
            model=network.name,
            residency=residency,
            weight_bytes=total_weights,
            persistent_bytes=persistent,
            streamed_bytes=0,
            window_bytes=0,
            activation_bytes=activations,
            cold_start_seconds=cold_start,
            compute_seconds=compute_total,
            dma_seconds=0.0,
            stall_seconds=0.0,
            service_seconds=compute_total,
            pinned_layers=pinned,
        )

    # Clamp the window up to the largest streamed layer: a window that
    # cannot hold one layer's weights can never make progress.
    effective_window = max(window_bytes, max(streamed.values()))

    # Pipeline recurrence.  `loaded` holds (weight, compute-finish) of
    # streamed layers occupying the window; earliest-finishing first,
    # which in a serial schedule is layer order.
    loaded: Deque[Tuple[int, float]] = deque()
    occupancy = 0
    dma_ready = 0.0
    compute_ready = 0.0
    dma_total = 0.0
    stall = 0.0
    window_peak = 0
    for step in steps:
        ready = compute_ready
        nbytes = streamed.get(step.index, 0)
        if nbytes:
            start = dma_ready
            while occupancy + nbytes > effective_window:
                evicted_bytes, finish = loaded.popleft()
                occupancy -= evicted_bytes
                start = max(start, finish)
            load_done = start + dma(nbytes)
            dma_ready = load_done
            dma_total += dma(nbytes)
            occupancy += nbytes
            window_peak = max(window_peak, occupancy)
            ready = max(ready, load_done)
        stall += max(0.0, ready - compute_ready)
        finish = ready + step.seconds
        compute_ready = finish
        if nbytes:
            loaded.append((nbytes, finish))
    service = compute_ready

    return ServicePlan(
        model=network.name,
        residency=residency,
        weight_bytes=total_weights,
        persistent_bytes=persistent,
        streamed_bytes=streamed_total,
        window_bytes=window_peak,
        activation_bytes=activations,
        cold_start_seconds=cold_start,
        compute_seconds=compute_total,
        dma_seconds=dma_total,
        stall_seconds=stall,
        service_seconds=service,
        pinned_layers=pinned,
    )


def streamed_layer_bytes(network: Network,
                         plan: ServicePlan) -> Dict[int, int]:
    """Per-layer weight bytes the plan streams (weights minus pins).

    The static verifier (SP406) re-derives the plan's accounting from
    this map: summing it must give ``streamed_bytes``, and its maximum
    is the window floor (the server's ladder rung 1 stops there).
    """
    weights = weight_load_bytes(network)
    pinned = frozenset(plan.pinned_layers)
    return {i: w for i, w in weights.items() if i not in pinned}


def shrink_window(
    network: Network,
    system: SystemConfig,
    algos: AlgoConfig,
    plan: ServicePlan,
    factor: float = 0.5,
) -> ServicePlan:
    """Re-plan with a smaller window (overload-ladder rung 1).

    Halving (by default) the window trades footprint for stall.  The
    result's window may clamp at the largest streamed layer — the floor
    below which shrinking stops helping and the ladder must move to its
    next rung (shedding).
    """
    if plan.residency == "resident" or plan.streamed_bytes == 0:
        return plan
    target = max(1, int(plan.window_bytes * factor))
    return plan_service(
        network, system, algos,
        residency=plan.residency,
        window_bytes=target,
        pinned_bytes=plan.persistent_bytes,
    )
