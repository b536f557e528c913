"""The DNN dataflow graph: nodes, dependency edges, refcounts, schedules.

The vDNN memory manager "keeps track of the inter-layer dependencies in the
form of a dataflow graph (e.g., Refcnt in Figure 3)" — this module is that
graph.  A :class:`Network` owns an ordered set of :class:`NetworkNode`
objects, each describing one layer, its inferred tensor shapes, the storage
aliasing induced by in-place ACTV/DROPOUT layers, and the consumer
refcounts that gate offload/release decisions for fork/join topologies.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from .layer import Layer, LayerKind
from .tensor import TensorSpec


class GraphError(ValueError):
    """Raised for malformed network topologies."""


@dataclass
class NetworkNode:
    """One layer plus everything the schedulers need to know about it.

    Attributes:
        index: position in the forward (topological) schedule.
        layer: the layer object itself.
        output_spec: spec of this layer's output feature map Y.
        weight_spec / bias_spec: parameter specs, or None.
        consumers: indices of layers reading this node's Y (``Refcnt`` in
            the paper's Figure 3 is ``len(consumers)``).
        producers: indices of layers whose Y this node reads as X.
        storage_index: index of the node that *owns* the storage this
            node's Y lives in.  Equal to ``index`` unless the layer runs
            in-place, in which case it points at (the storage owner of)
            its producer.
        weight_root: index of the node that owns this node's parameters
            (differs from ``index`` only for weight-tied layers).
        is_feature_extraction: True for layers ahead of the first FC
            layer — the region vDNN targets (Section III).
        weight_tensor_bytes: size of the parameter tensors this layer's
            kernels touch (nonzero even when the parameters are shared).
        weight_bytes: parameter bytes this layer *owns* (0 for tied
            layers).

    The two weight sizes are derived facts, set once by
    :class:`Network` after weight ties resolve; like every field here
    they are never written after the network is built (lint LINT208).
    """

    index: int
    layer: Layer
    output_spec: TensorSpec
    weight_spec: Optional[TensorSpec] = None
    bias_spec: Optional[TensorSpec] = None
    consumers: List[int] = field(default_factory=list)
    producers: List[int] = field(default_factory=list)
    storage_index: int = -1
    weight_root: int = -1
    is_feature_extraction: bool = True
    weight_tensor_bytes: int = field(default=0, compare=False)
    weight_bytes: int = field(default=0, compare=False)

    @property
    def name(self) -> str:
        return self.layer.name

    @property
    def kind(self) -> LayerKind:
        return self.layer.kind

    @property
    def refcount(self) -> int:
        """Number of consumer layers of this node's Y (Figure 3)."""
        return len(self.consumers)

    @property
    def in_place(self) -> bool:
        """Whether this node actually aliases its producer's storage."""
        return self.storage_index != self.index

    @property
    def is_weight_tied(self) -> bool:
        return self.weight_root != self.index


class Network:
    """An immutable, validated, topologically-ordered DNN graph."""

    def __init__(self, name: str, layers: Sequence[Layer]):
        self.name = name
        self._nodes: List[NetworkNode] = []
        self._by_name: Dict[str, NetworkNode] = {}
        self._build(list(layers))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, layers: List[Layer]) -> None:
        if not layers:
            raise GraphError("network has no layers")

        sources = [l for l in layers if not l.inputs]
        if len(sources) != 1 or sources[0].kind is not LayerKind.INPUT:
            raise GraphError(
                f"network {self.name!r} must have exactly one Input layer "
                f"as its only source, found sources "
                f"{[l.name for l in sources]}"
            )

        order = self._topological_order(layers)
        name_to_index = {layer.name: i for i, layer in enumerate(order)}

        for index, layer in enumerate(order):
            producer_indices = [name_to_index[n] for n in layer.inputs]
            input_specs = [self._nodes[p].output_spec for p in producer_indices]
            node = NetworkNode(
                index=index,
                layer=layer,
                output_spec=layer.infer_output(input_specs),
                weight_spec=layer.weight_spec(input_specs),
                bias_spec=layer.bias_spec(input_specs),
                producers=producer_indices,
            )
            for p in producer_indices:
                self._nodes[p].consumers.append(index)
            self._nodes.append(node)
            self._by_name[layer.name] = node

        self._assign_storage()
        self._resolve_weight_ties()
        self._mark_regions()
        self._validate()

    @staticmethod
    def _topological_order(layers: List[Layer]) -> List[Layer]:
        by_name: Dict[str, Layer] = {}
        for layer in layers:
            if layer.name in by_name:
                raise GraphError(f"duplicate layer name {layer.name!r}")
            by_name[layer.name] = layer

        for layer in layers:
            for dep in layer.inputs:
                if dep not in by_name:
                    raise GraphError(
                        f"layer {layer.name!r} references unknown input {dep!r}"
                    )

        # Kahn's algorithm, stable with respect to the declaration order so
        # that builder-emitted networks keep their natural layer numbering.
        # ``queued`` (names ever put on the ready queue) makes each
        # membership test O(1); a layer listing one input twice appears
        # twice among that input's consumers but is queued once.
        remaining_deps = {layer.name: set(layer.inputs) for layer in layers}
        ordered: List[Layer] = []
        ready = deque(l for l in layers if not remaining_deps[l.name])
        queued = {l.name for l in ready}
        consumers: Dict[str, List[Layer]] = {l.name: [] for l in layers}
        for layer in layers:
            for dep in layer.inputs:
                consumers[dep].append(layer)

        while ready:
            layer = ready.popleft()
            ordered.append(layer)
            for consumer in consumers[layer.name]:
                deps = remaining_deps[consumer.name]
                deps.discard(layer.name)
                if not deps and consumer.name not in queued:
                    queued.add(consumer.name)
                    ready.append(consumer)

        if len(ordered) != len(layers):
            stuck = [l.name for l in layers if l.name not in queued]
            raise GraphError(f"network contains a cycle involving {stuck}")
        return ordered

    def _assign_storage(self) -> None:
        for node in self._nodes:
            node.storage_index = node.index
            if not node.layer.in_place or not node.producers:
                continue
            producer = self._nodes[node.producers[0]]
            # Running in-place over a producer whose output has other
            # consumers would corrupt those consumers' inputs; fall back
            # to out-of-place in that case (Torch does the same).
            if len(producer.consumers) == 1:
                node.storage_index = producer.storage_index

    def _resolve_weight_ties(self) -> None:
        for node in self._nodes:
            node.weight_root = node.index
        for node in self._nodes:
            tied_to = getattr(node.layer, "tied_to", None)
            if tied_to is None:
                continue
            root = self._by_name.get(tied_to)
            if root is None:
                raise GraphError(
                    f"layer {node.name!r} is tied to unknown layer "
                    f"{tied_to!r}"
                )
            if root.index >= node.index:
                raise GraphError(
                    f"layer {node.name!r} must be tied to an *earlier* "
                    f"layer, not {tied_to!r}"
                )
            if (root.weight_spec, root.bias_spec) != \
                    (node.weight_spec, node.bias_spec):
                raise GraphError(
                    f"layer {node.name!r} cannot share parameters with "
                    f"{tied_to!r}: specs differ"
                )
            node.weight_root = root.weight_root
        # Sizes, now that ties are known: read on every plan compile.
        for node in self._nodes:
            total = node.weight_spec.nbytes if node.weight_spec else 0
            total += node.bias_spec.nbytes if node.bias_spec else 0
            node.weight_tensor_bytes = total
            node.weight_bytes = 0 if node.is_weight_tied else total

    def _mark_regions(self) -> None:
        """Split feature extraction from the classifier (paper §II-A).

        Convolutional networks switch regions at the first FC layer.
        Networks without any CONV layer (e.g. unrolled RNNs built from
        FC recurrences) keep everything up to the *last* FC — the head —
        in the managed region, since their FC body plays the
        feature-extraction role.
        """
        fc_indices = [n.index for n in self._nodes if n.kind is LayerKind.FC]
        has_conv = any(n.kind is LayerKind.CONV for n in self._nodes)
        if not fc_indices:
            boundary = len(self._nodes)
        elif has_conv:
            boundary = fc_indices[0]
        else:
            boundary = fc_indices[-1]
        for node in self._nodes:
            node.is_feature_extraction = node.index < boundary

    def _validate(self) -> None:
        inputs = [n for n in self._nodes if n.kind is LayerKind.INPUT]
        if len(inputs) != 1:
            raise GraphError(
                f"network {self.name!r} must have exactly one Input layer, "
                f"found {len(inputs)}"
            )
        if inputs[0].index != 0:
            raise GraphError("the Input layer must be the topological source")
        for node in self._nodes[1:]:
            if not node.producers:
                raise GraphError(
                    f"layer {node.name!r} is disconnected (no inputs)"
                )
        batch = inputs[0].output_spec.batch
        for node in self._nodes:
            if node.output_spec.batch != batch:
                raise GraphError(
                    f"layer {node.name!r} changes the batch dimension"
                )

    # ------------------------------------------------------------------
    # Read API
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._nodes)

    def __iter__(self) -> Iterable[NetworkNode]:
        return iter(self._nodes)

    def __getitem__(self, index: int) -> NetworkNode:
        return self._nodes[index]

    def node(self, name: str) -> NetworkNode:
        try:
            return self._by_name[name]
        except KeyError:
            raise GraphError(f"no layer named {name!r} in {self.name!r}") from None

    @property
    def nodes(self) -> List[NetworkNode]:
        return list(self._nodes)

    @property
    def batch_size(self) -> int:
        return self._nodes[0].output_spec.batch

    @property
    def input_node(self) -> NetworkNode:
        return self._nodes[0]

    @property
    def output_node(self) -> NetworkNode:
        sinks = [n for n in self._nodes if not n.consumers]
        return sinks[-1]

    def forward_schedule(self) -> List[int]:
        """Layer indices in forward-propagation order."""
        return [n.index for n in self._nodes]

    def backward_schedule(self) -> List[int]:
        """Layer indices in backward-propagation order (paper Fig. 8).

        The input layer has no backward computation and is excluded.
        """
        return [n.index for n in reversed(self._nodes) if n.kind is not LayerKind.INPUT]

    def storage_owner(self, index: int) -> NetworkNode:
        """Resolve in-place aliasing to the node owning the actual buffer."""
        return self._nodes[self._nodes[index].storage_index]

    def layers_of_kind(self, *kinds: LayerKind) -> List[NetworkNode]:
        return [n for n in self._nodes if n.kind in kinds]

    @property
    def conv_layers(self) -> List[NetworkNode]:
        return self.layers_of_kind(LayerKind.CONV)

    @property
    def feature_extraction_nodes(self) -> List[NetworkNode]:
        return [n for n in self._nodes if n.is_feature_extraction]

    @property
    def classifier_nodes(self) -> List[NetworkNode]:
        return [n for n in self._nodes if not n.is_feature_extraction]

    def total_weight_bytes(self) -> int:
        return sum(n.weight_bytes for n in self._nodes)

    def with_batch_size(self, batch: int) -> "Network":
        """Clone this network with a different input batch size."""
        import copy

        layers = []
        for node in self._nodes:
            layer = copy.deepcopy(node.layer)
            if node.kind is LayerKind.INPUT:
                layer.shape = (batch,) + tuple(layer.shape[1:])
            layers.append(layer)
        return Network(self.name, layers)

    def with_dtype_bytes(self, dtype_bytes: int) -> "Network":
        """Clone this network at a different numeric precision.

        Precision flows from the Input layer through every inferred
        spec, so halving ``dtype_bytes`` (fp32 -> fp16) halves every
        feature-map, gradient and weight allocation.
        """
        import copy

        layers = []
        for node in self._nodes:
            layer = copy.deepcopy(node.layer)
            if node.kind is LayerKind.INPUT:
                layer.dtype_bytes = dtype_bytes
            layers.append(layer)
        return Network(self.name, layers)

    def summary(self) -> str:
        """Human-readable per-layer table (name, kind, Y shape, params)."""
        lines = [f"Network {self.name!r}: {len(self)} layers, "
                 f"batch {self.batch_size}"]
        for node in self._nodes:
            region = "feat" if node.is_feature_extraction else "clsf"
            flags = []
            if node.in_place:
                flags.append("in-place")
            if node.refcount > 1:
                flags.append(f"refcnt={node.refcount}")
            lines.append(
                f"  [{node.index:3d}] {node.name:<24s} {node.kind.value:<8s}"
                f" {region} Y={node.output_spec} W={node.weight_bytes // 1024}KB"
                f" {' '.join(flags)}"
            )
        return "\n".join(lines)
