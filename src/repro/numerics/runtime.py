"""Functional training runtime: real numpy training under a memory manager.

This is the proof that the vDNN mechanism is *correct*, not only fast on
paper: a :class:`TrainingRuntime` executes forward/backward passes with
real numpy buffers in a byte-budgeted :class:`~repro.numerics.heap.DeviceHeap`.
Each training step is one run of the simulator's own vDNN walk
(:class:`~repro.core.walk.PlanWalk`) over the same
:class:`~repro.core.plan.CompiledPlan`, in a numpy domain: the walk
decides the dead releases, offloads, the Figure-10 prefetches, demand
fetches, gradient twins, release lists and the replays of the
checkpoint drop set of :func:`~repro.core.recompute.checkpoint_plan`,
and the domain stores, copies and frees real arrays.  Offloaded feature
maps really leave the device heap (and really come back), released
buffers are really gone, and gradients for fork/join topologies really
accumulate — so the tests can demand that training under ``vDNN_all``
is *bitwise identical* to training with everything resident, and that
the device heap allocates and frees feature maps and gradient twins in
exactly the order of the simulator's
:class:`~repro.analysis.trace.ScheduleTrace`.  Inference
(:meth:`TrainingRuntime.predict`) is a forward loop of its own that
frees every buffer at its last use.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..core.algo_config import AlgoConfig
from ..core.plan import compiled_plan
from ..core.policy import TransferPolicy
from ..core.recompute import checkpoint_plan
from ..core.walk import PlanWalk
from ..graph.layer import (
    Activation,
    ActivationKind,
    BatchNorm,
    Conv2D,
    Dropout,
    FullyConnected,
    LayerKind,
    LRN,
    Pool2D,
    PoolMode,
    Slice,
)
from ..graph.network import Network, NetworkNode
from ..hw.config import PAPER_SYSTEM
from . import ops
from .heap import DeviceHeap, HostHeap
from .initializers import init_bias, init_weight
from .optim import SGD


@dataclass
class StepResult:
    """Metrics from one training step."""

    loss: float
    device_peak_bytes: int
    device_live_bytes: int
    host_peak_bytes: int
    offload_count: int
    prefetch_count: int
    demand_fetch_count: int


def _activation_ops(kind: ActivationKind):
    return {
        ActivationKind.RELU: (ops.relu_forward, ops.relu_backward),
        ActivationKind.SIGMOID: (ops.sigmoid_forward, ops.sigmoid_backward),
        ActivationKind.TANH: (ops.tanh_forward, ops.tanh_backward),
    }[kind]


class TrainingRuntime:
    """Trains a network with numpy under a device-memory budget.

    Args:
        network: the DNN (must end in a Softmax layer for training).
        policy: vDNN transfer policy; :meth:`TransferPolicy.none` keeps
            everything resident (the baseline behaviour).
        device_budget_bytes: hard cap on simultaneous device bytes;
            ``None`` means effectively unlimited.
        host_budget_bytes: cap on offloaded (pinned) bytes.
        seed: controls weight init, synthetic dropout masks.
        learning_rate / momentum: SGD hyperparameters.
        recompute_segments: gradient checkpointing (Chen et al.'s
            sublinear-memory training) with this many segments; ``0``
            means sqrt(L) and ``None`` (the default) drops nothing.
            It composes with an offloading policy (the SuperNeurons
            hybrid): storages the policy offloads are excluded from
            dropping, so each buffer is moved to the host *or*
            recomputed, never both.
    """

    def __init__(
        self,
        network: Network,
        policy: Optional[TransferPolicy] = None,
        device_budget_bytes: Optional[int] = None,
        host_budget_bytes: Optional[int] = None,
        seed: int = 0,
        learning_rate: float = 0.01,
        momentum: float = 0.0,
        recompute_segments: Optional[int] = None,
        optimizer=None,
    ):
        self.network = network
        self.policy = policy or TransferPolicy.none()
        # Only the plan's hardware-independent fields (storages, steps,
        # release lists, offload candidates) drive training.
        self.plan = compiled_plan(network, PAPER_SYSTEM,
                                  AlgoConfig.memory_optimal(network))
        self.device = DeviceHeap(device_budget_bytes or (1 << 50))
        self.host = HostHeap(host_budget_bytes)
        # Any object with step(key, param, grad) works (SGD, Adam, ...).
        self.optimizer = optimizer if optimizer is not None \
            else SGD(learning_rate, momentum)
        self.seed = seed
        self.step_count = 0
        self.recompute_count = 0
        # The storages each step drops and replays (the walk's drop set).
        self._dropped = frozenset()
        if recompute_segments is not None:
            self._dropped = checkpoint_plan(
                network, recompute_segments,
                exclude=self.plan.candidate_owners(
                    self.plan.offload_indices(self.policy, network))
            ).dropped

        output = network.output_node
        if output.kind is not LayerKind.SOFTMAX:
            raise ValueError(
                f"training requires a terminal Softmax layer, the network "
                f"ends in {output.kind.value}"
            )

        # Persistent parameters and their gradient buffers.  Weight-tied
        # layers own nothing: they read (and accumulate into) their
        # root's buffers.
        for node in network:
            if node.is_weight_tied:
                continue
            weight = init_weight(node, seed)
            if weight is not None:
                self.device.store(f"W{node.index}", weight)
                self.device.store(f"dW{node.index}", np.zeros_like(weight))
            bias = init_bias(node, seed)
            if bias is not None:
                self.device.store(f"B{node.index}", bias)
                self.device.store(f"dB{node.index}", np.zeros_like(bias))
        self._persistent_keys = set(self.device.keys)

    def _dropout_seed(self, node: NetworkNode) -> int:
        return (
            self.seed * 0x9E3779B1
            + self.step_count * 1000003
            + zlib.crc32(node.name.encode())
        ) % (2 ** 31)

    # -- parameter access --------------------------------------------------
    def weights(self, layer_name: str) -> np.ndarray:
        """The live weight tensor of a CONV/FC layer (by name)."""
        node = self.network.node(layer_name)
        return self.device.get(f"W{node.weight_root}")

    def parameter_fingerprint(self) -> int:
        """CRC over every parameter, for cheap bitwise-equality checks."""
        crc = 0
        for node in self.network:
            for key in (f"W{node.index}", f"B{node.index}"):
                if self.device.contains(key):
                    crc = zlib.crc32(self.device.get(key).tobytes(), crc)
        return crc

    # -- forward -----------------------------------------------------------
    def _input_arrays(self, node: NetworkNode) -> List[np.ndarray]:
        return [self.device.get(f"Y{self.network[p].storage_index}")
                for p in node.producers]

    def _params(self, node: NetworkNode, bias: bool = True):
        """A layer's weight (resolving ties) and bias, if it has one."""
        root = node.weight_root
        return (self.device.get(f"W{root}"),
                self.device.get(f"B{root}") if bias else None)

    def _forward_node(self, node: NetworkNode, training: bool) -> np.ndarray:
        layer = node.layer
        inputs = self._input_arrays(node)

        if node.kind is LayerKind.CONV:
            assert isinstance(layer, Conv2D)
            w, b = self._params(node, layer.bias)
            return ops.conv2d_forward(inputs[0], w, b, layer.stride, layer.pad)
        if node.kind is LayerKind.ACTV:
            assert isinstance(layer, Activation)
            forward, _ = _activation_ops(layer.activation)
            return forward(inputs[0])
        if node.kind is LayerKind.POOL:
            assert isinstance(layer, Pool2D)
            _, _, oh, ow = node.output_spec.shape
            pool = ops.maxpool_forward if layer.mode is PoolMode.MAX \
                else ops.avgpool_forward
            return pool(inputs[0], layer.kernel, layer.stride, layer.pad,
                        oh, ow)
        if node.kind is LayerKind.LRN:
            assert isinstance(layer, LRN)
            return ops.lrn_forward(
                inputs[0], layer.local_size, layer.alpha, layer.beta, layer.k
            )
        if node.kind is LayerKind.FC:
            assert isinstance(layer, FullyConnected)
            w, b = self._params(node, layer.bias)
            return ops.fc_forward(inputs[0], w, b)
        if node.kind is LayerKind.DROPOUT:
            assert isinstance(layer, Dropout)
            return ops.dropout_forward(
                inputs[0], layer.rate, self._dropout_seed(node), training
            )
        if node.kind is LayerKind.CONCAT:
            return ops.concat_forward(inputs)
        if node.kind is LayerKind.ADD:
            return ops.eltwise_add_forward(inputs)
        if node.kind is LayerKind.MUL:
            return ops.eltwise_mul_forward(inputs[0], inputs[1])
        if node.kind is LayerKind.BN:
            assert isinstance(layer, BatchNorm)
            gamma, beta = self._params(node)
            return ops.batchnorm_forward(inputs[0], gamma, beta, layer.epsilon)
        if node.kind is LayerKind.SLICE:
            assert isinstance(layer, Slice)
            return ops.slice_forward(inputs[0], layer.begin, layer.end)
        if node.kind is LayerKind.SOFTMAX:
            return ops.softmax_forward(inputs[0])
        raise ValueError(f"cannot execute layer kind {node.kind}")

    def _emit(self, node: NetworkNode, y: np.ndarray) -> None:
        """Write a layer's output: a new buffer, or in place."""
        key = f"Y{node.storage_index}"
        if node.in_place:
            self.device.get(key)[...] = y
        else:
            self.device.store(key, y)

    def _batch(self, images: np.ndarray) -> np.ndarray:
        input_spec = self.network.input_node.output_spec
        if tuple(images.shape) != tuple(input_spec.shape):
            raise ValueError(
                f"batch shape {images.shape} does not match network input "
                f"{input_spec.shape}"
            )
        return images.astype(ops.DTYPE, copy=False)

    # -- backward ----------------------------------------------------------
    def _accumulate_gradient(self, owner: int, value: np.ndarray) -> None:
        """Add a dX contribution into a storage's gradient twin (the
        input batch has none)."""
        if owner not in self.plan.input_owners:
            self.device.get(f"dY{owner}")[...] += value

    def _accumulate_weight_gradients(self, node: NetworkNode, dw, db) -> None:
        root = node.weight_root
        self.device.get(f"dW{root}")[...] += dw
        if db is not None:
            self.device.get(f"dB{root}")[...] += db

    def _backward_node(self, node: NetworkNode, labels: np.ndarray) -> None:
        layer = node.layer
        owners = [self.network[p].storage_index for p in node.producers]

        if node.kind is LayerKind.SOFTMAX:
            probs = self.device.get(f"Y{node.storage_index}")
            dx = ops.softmax_cross_entropy_backward(probs, labels)
            self._accumulate_gradient(owners[0], dx)
            return

        dy = self.device.get(f"dY{node.storage_index}")

        if node.kind is LayerKind.CONV:
            assert isinstance(layer, Conv2D)
            x = self._input_arrays(node)[0]
            w, _ = self._params(node, bias=False)
            dx, dw, db = ops.conv2d_backward(
                x, w, dy, layer.stride, layer.pad, layer.bias
            )
            self._accumulate_weight_gradients(node, dw, db)
        elif node.kind is LayerKind.FC:
            assert isinstance(layer, FullyConnected)
            x = self._input_arrays(node)[0]
            w, _ = self._params(node, bias=False)
            dx, dw, db = ops.fc_backward(x, w, dy, layer.bias)
            self._accumulate_weight_gradients(node, dw, db)
        elif node.kind is LayerKind.ACTV:
            assert isinstance(layer, Activation)
            _, backward = _activation_ops(layer.activation)
            y = self.device.get(f"Y{node.storage_index}")
            dy[...] = backward(y, dy)  # in-place, like the forward pass
            return
        elif node.kind is LayerKind.DROPOUT:
            assert isinstance(layer, Dropout)
            dy[...] = ops.dropout_backward(
                dy, layer.rate, self._dropout_seed(node), training=True
            )
            return
        elif node.kind is LayerKind.POOL:
            assert isinstance(layer, Pool2D)
            if layer.mode is PoolMode.MAX:
                x = self._input_arrays(node)[0]
                y = self.device.get(f"Y{node.storage_index}")
                dx = ops.maxpool_backward(
                    x, y, dy, layer.kernel, layer.stride, layer.pad
                )
            else:
                # Average pooling's backward needs only dY; the input
                # buffer may already be released, so take the shape from
                # the graph, never from a live array.
                x_shape = self.network[node.producers[0]].output_spec.shape
                dx = ops.avgpool_backward(
                    x_shape, dy, layer.kernel, layer.stride, layer.pad
                )
        elif node.kind is LayerKind.LRN:
            assert isinstance(layer, LRN)
            x = self._input_arrays(node)[0]
            y = self.device.get(f"Y{node.storage_index}")
            dx = ops.lrn_backward(
                x, y, dy, layer.local_size, layer.alpha, layer.beta, layer.k
            )
        elif node.kind is LayerKind.CONCAT:
            channel_counts = [
                self.network[p].output_spec.shape[1] for p in node.producers
            ]
            for owner, part in zip(owners,
                                   ops.concat_backward(dy, channel_counts)):
                self._accumulate_gradient(owner, part)
            return
        elif node.kind is LayerKind.ADD:
            for owner in owners:
                self._accumulate_gradient(owner, dy)
            return
        elif node.kind is LayerKind.MUL:
            a, b = self._input_arrays(node)
            for owner, part in zip(owners, ops.eltwise_mul_backward(a, b, dy)):
                self._accumulate_gradient(owner, part)
            return
        elif node.kind is LayerKind.BN:
            assert isinstance(layer, BatchNorm)
            x = self._input_arrays(node)[0]
            gamma, _ = self._params(node, bias=False)
            dx, dgamma, dbeta = ops.batchnorm_backward(
                x, gamma, dy, layer.epsilon
            )
            self._accumulate_weight_gradients(node, dgamma, dbeta)
        elif node.kind is LayerKind.SLICE:
            assert isinstance(layer, Slice)
            x_shape = self.network[node.producers[0]].output_spec.shape
            dx = ops.slice_backward(x_shape, dy, layer.begin, layer.end)
        else:
            raise ValueError(f"cannot differentiate layer kind {node.kind}")
        # A single-input layer routes its dX into its producer's twin.
        self._accumulate_gradient(owners[0], dx)

    # -- public API ---------------------------------------------------------
    def train_step(self, images: np.ndarray, labels: np.ndarray) -> StepResult:
        """One SGD step: forward, loss, backward, parameter update."""
        walk = _TrainingWalk(self, self._batch(images), labels)
        # Weight gradients accumulate (weight tying may contribute from
        # several layers), so zero them before every step.
        for node in self.network:
            for key in (f"dW{node.index}", f"dB{node.index}"):
                if self.device.contains(key):
                    self.device.get(key)[...] = 0
        walk.run_forward()

        output = self.network.output_node
        probs = self.device.get(f"Y{output.storage_index}")
        loss = ops.cross_entropy_loss(probs, labels)

        walk.run_backward()  # its end sweep frees what is left

        for node in self.network:
            for param, grad in ((f"W{node.index}", f"dW{node.index}"),
                                (f"B{node.index}", f"dB{node.index}")):
                if self.device.contains(param):
                    self.optimizer.step(param, self.device.get(param),
                                        self.device.get(grad))

        self.step_count += 1
        return StepResult(
            loss=loss,
            device_peak_bytes=self.device.peak_bytes,
            device_live_bytes=self.device.live_bytes,
            host_peak_bytes=self.host.peak_bytes,
            offload_count=self.host.offload_count,
            prefetch_count=self.host.prefetch_count,
            demand_fetch_count=walk.demand_fetches,
        )

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Inference: forward only, freeing buffers at last use (Fig. 7)."""
        device = self.device
        for step in self.plan.forward:
            node = self.network[step.index]
            self._emit(node, self._batch(images) if step.is_input
                       else self._forward_node(node, training=False))
            for rec in step.dead_releases + step.offload_candidates:
                device.free(rec.y_buf)
        output = self.network.output_node
        probs = device.get(f"Y{output.storage_index}").copy()
        for key in self.transient_keys():
            device.free(key)
        return probs

    def train(self, batches) -> List[StepResult]:
        """Convenience loop over an iterable of (images, labels)."""
        return [self.train_step(images, labels) for images, labels in batches]

    def transient_keys(self):
        """Non-persistent buffers currently resident (should be empty
        between steps — tests assert this)."""
        return self.device.keys - self._persistent_keys


class _TrainingWalk(PlanWalk):
    """One training step as a domain of the vDNN walk
    (:class:`~repro.core.walk.PlanWalk`).

    Blocks are :class:`DeviceHeap` keys.  Forward kernels write their
    outputs (a replay counts toward ``recompute_count``), offloads copy
    to the :class:`HostHeap` and restores copy back, counting the
    blocking ones as demand fetches.  Time does not pass, so syncs do
    nothing, fetches never fail and numpy needs no workspace.
    """

    def __init__(self, runtime: TrainingRuntime, images: np.ndarray,
                 labels: np.ndarray):
        super().__init__(runtime.network, PAPER_SYSTEM, runtime.policy,
                         runtime.plan, True, True, True, runtime._dropped)
        self.runtime = runtime
        self.heap = runtime.device
        self.images = images
        self.labels = labels
        self.demand_fetches = 0

    def _alloc_output(self, step, rec) -> str:
        if step.is_input:
            self.heap.store(rec.y_buf, self.images)
        return rec.y_buf  # the kernel stores it

    def _alloc_workspace(self, ws, step, phase: str) -> None:
        return None

    def _alloc_gradient(self, step, rec) -> str:
        self.heap.store(rec.g_buf, np.zeros(
            self.network[rec.owner].output_spec.shape, ops.DTYPE))
        return rec.g_buf

    def _alloc_restore(self, step, rec, target: int) -> str:
        self.heap.store(rec.y_buf, self.runtime.host.prefetch(rec.y_buf))
        self.demand_fetches += target < 0
        return rec.y_buf

    def _alloc_replay(self, step, rec) -> str:
        return rec.y_buf  # the replayed kernels store it

    def _forward_kernel(self, step, replay: bool = False) -> None:
        # A replay redraws the forward pass's dropout mask: its seed
        # depends only on (step, layer).
        runtime = self.runtime
        node = self.network[step.index]
        runtime._emit(node, runtime._forward_node(node, training=True))
        runtime.recompute_count += replay

    def _backward_kernel(self, step, workspace) -> None:
        self.runtime._backward_node(self.network[step.index], self.labels)

    def _stage(self, step, rec, wire: int, compress: bool, issued) -> bool:
        self.runtime.host.offload(rec.y_buf, self.heap.get(rec.y_buf))
        return True

    def _fetch(self, step, rec, target: int) -> bool:
        return True

    def _free(self, key: str, layer: int, phase: str) -> None:
        self.heap.free(key)

    def _sync(self, cause: str, name, layer_index: int) -> None:
        pass
