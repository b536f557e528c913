"""Fluent builder for assembling networks without hand-writing edge lists.

The builder keeps a "cursor" on the most recently added layer so linear
chains read naturally::

    net = (NetworkBuilder("toy", input_shape=(8, 3, 32, 32))
           .conv(16, kernel=3, pad=1).relu().pool()
           .fc(10).softmax().build())

Branching (GoogLeNet-style fork/join) is explicit: capture the cursor with
:meth:`tap`, start branches from it with ``after=``, then merge with
:meth:`concat`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from .layer import (
    Activation,
    ActivationKind,
    BatchNorm,
    Concat,
    Conv2D,
    Dropout,
    EltwiseAdd,
    EltwiseMul,
    FullyConnected,
    Input,
    Layer,
    LRN,
    Pool2D,
    PoolMode,
    Slice,
    Softmax,
)
from .network import Network


class NetworkBuilder:
    """Incrementally constructs a :class:`~repro.graph.network.Network`."""

    def __init__(self, name: str, input_shape: Tuple[int, int, int, int],
                 dtype_bytes: int = 4):
        self.name = name
        self._layers: List[Layer] = []
        self._counts: dict = {}
        self._cursor: Optional[str] = None
        self._add(Input(self._fresh("input"), shape=tuple(input_shape),
                        dtype_bytes=dtype_bytes))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _fresh(self, prefix: str) -> str:
        n = self._counts.get(prefix, 0) + 1
        self._counts[prefix] = n
        return f"{prefix}_{n:02d}"

    def _add(self, layer: Layer) -> str:
        self._layers.append(layer)
        self._cursor = layer.name
        return layer.name

    def _resolve(self, after: Optional[str]) -> str:
        source = after if after is not None else self._cursor
        if source is None:
            raise ValueError("builder has no current layer to attach to")
        return source

    # ------------------------------------------------------------------
    # Layer verbs
    # ------------------------------------------------------------------
    def conv(
        self,
        out_channels: int,
        kernel: int = 3,
        stride: int = 1,
        pad: int = 0,
        name: Optional[str] = None,
        after: Optional[str] = None,
        tied_to: Optional[str] = None,
    ) -> "NetworkBuilder":
        self._add(Conv2D(
            name or self._fresh("conv"),
            inputs=[self._resolve(after)],
            out_channels=out_channels,
            kernel=kernel,
            stride=stride,
            pad=pad,
            tied_to=tied_to,
        ))
        return self

    def relu(self, name: Optional[str] = None, after: Optional[str] = None) -> "NetworkBuilder":
        self._add(Activation(
            name or self._fresh("relu"),
            inputs=[self._resolve(after)],
            activation=ActivationKind.RELU,
        ))
        return self

    def tanh(self, name: Optional[str] = None, after: Optional[str] = None) -> "NetworkBuilder":
        self._add(Activation(
            name or self._fresh("tanh"),
            inputs=[self._resolve(after)],
            activation=ActivationKind.TANH,
        ))
        return self

    def sigmoid(self, name: Optional[str] = None, after: Optional[str] = None) -> "NetworkBuilder":
        self._add(Activation(
            name or self._fresh("sigmoid"),
            inputs=[self._resolve(after)],
            activation=ActivationKind.SIGMOID,
        ))
        return self

    def pool(
        self,
        kernel: int = 2,
        stride: int = 2,
        pad: int = 0,
        mode: PoolMode = PoolMode.MAX,
        name: Optional[str] = None,
        after: Optional[str] = None,
    ) -> "NetworkBuilder":
        self._add(Pool2D(
            name or self._fresh("pool"),
            inputs=[self._resolve(after)],
            mode=mode,
            kernel=kernel,
            stride=stride,
            pad=pad,
        ))
        return self

    def lrn(
        self,
        local_size: int = 5,
        name: Optional[str] = None,
        after: Optional[str] = None,
    ) -> "NetworkBuilder":
        self._add(LRN(
            name or self._fresh("lrn"),
            inputs=[self._resolve(after)],
            local_size=local_size,
        ))
        return self

    def fc(
        self,
        out_features: int,
        name: Optional[str] = None,
        after: Optional[str] = None,
        tied_to: Optional[str] = None,
    ) -> "NetworkBuilder":
        self._add(FullyConnected(
            name or self._fresh("fc"),
            inputs=[self._resolve(after)],
            out_features=out_features,
            tied_to=tied_to,
        ))
        return self

    def slice(
        self,
        begin: int,
        end: int,
        name: Optional[str] = None,
        after: Optional[str] = None,
    ) -> "NetworkBuilder":
        """Select a channel range [begin, end) of the current layer."""
        self._add(Slice(
            name or self._fresh("slice"),
            inputs=[self._resolve(after)],
            begin=begin,
            end=end,
        ))
        return self

    def dropout(
        self,
        rate: float = 0.5,
        name: Optional[str] = None,
        after: Optional[str] = None,
    ) -> "NetworkBuilder":
        self._add(Dropout(
            name or self._fresh("drop"),
            inputs=[self._resolve(after)],
            rate=rate,
        ))
        return self

    def concat(self, branches: Sequence[str], name: Optional[str] = None) -> "NetworkBuilder":
        self._add(Concat(name or self._fresh("concat"), inputs=list(branches)))
        return self

    def add(self, branches: Sequence[str], name: Optional[str] = None) -> "NetworkBuilder":
        """Element-wise sum of branches (residual join)."""
        self._add(EltwiseAdd(name or self._fresh("add"), inputs=list(branches)))
        return self

    def mul(self, branches: Sequence[str], name: Optional[str] = None) -> "NetworkBuilder":
        """Element-wise product of two branches (LSTM/GRU gating)."""
        self._add(EltwiseMul(name or self._fresh("mul"), inputs=list(branches)))
        return self

    def batchnorm(
        self,
        epsilon: float = 1e-5,
        name: Optional[str] = None,
        after: Optional[str] = None,
    ) -> "NetworkBuilder":
        self._add(BatchNorm(
            name or self._fresh("bn"),
            inputs=[self._resolve(after)],
            epsilon=epsilon,
        ))
        return self

    def softmax(self, name: Optional[str] = None, after: Optional[str] = None) -> "NetworkBuilder":
        self._add(Softmax(
            name or self._fresh("softmax"),
            inputs=[self._resolve(after)],
        ))
        return self

    # ------------------------------------------------------------------
    # Composite verbs
    # ------------------------------------------------------------------
    def conv_relu(
        self,
        out_channels: int,
        kernel: int = 3,
        stride: int = 1,
        pad: int = 0,
        name: Optional[str] = None,
        after: Optional[str] = None,
    ) -> "NetworkBuilder":
        """CONV immediately followed by in-place ReLU (the common idiom)."""
        self.conv(out_channels, kernel, stride, pad, name=name, after=after)
        return self.relu()

    def tap(self) -> str:
        """Return the current layer name, for starting branches later."""
        if self._cursor is None:
            raise ValueError("builder has no current layer to tap")
        return self._cursor

    def at(self, name: str) -> "NetworkBuilder":
        """Move the cursor onto an existing layer."""
        if not any(l.name == name for l in self._layers):
            raise ValueError(f"no layer named {name!r} in builder")
        self._cursor = name
        return self

    def inception(
        self,
        c1: int,
        c3_reduce: int,
        c3: int,
        c5_reduce: int,
        c5: int,
        pool_proj: int,
        name: Optional[str] = None,
    ) -> "NetworkBuilder":
        """GoogLeNet inception module: four branches joined by a concat.

        Branch widths follow Szegedy et al.'s Table 1 naming: ``#1x1``,
        ``#3x3 reduce``, ``#3x3``, ``#5x5 reduce``, ``#5x5``, ``pool proj``.
        """
        source = self.tap()
        base = name or self._fresh("incep")

        self.conv(c1, kernel=1, name=f"{base}_1x1", after=source)
        b1 = self.relu(name=f"{base}_1x1_relu").tap()

        self.conv(c3_reduce, kernel=1, name=f"{base}_3x3r", after=source).relu(
            name=f"{base}_3x3r_relu")
        self.conv(c3, kernel=3, pad=1, name=f"{base}_3x3")
        b2 = self.relu(name=f"{base}_3x3_relu").tap()

        self.conv(c5_reduce, kernel=1, name=f"{base}_5x5r", after=source).relu(
            name=f"{base}_5x5r_relu")
        self.conv(c5, kernel=5, pad=2, name=f"{base}_5x5")
        b3 = self.relu(name=f"{base}_5x5_relu").tap()

        self.pool(kernel=3, stride=1, pad=1, name=f"{base}_pool", after=source)
        self.conv(pool_proj, kernel=1, name=f"{base}_proj")
        b4 = self.relu(name=f"{base}_proj_relu").tap()

        return self.concat([b1, b2, b3, b4], name=f"{base}_out")

    # ------------------------------------------------------------------
    def build(self) -> Network:
        """Validate and freeze into a :class:`Network`."""
        return Network(self.name, self._layers)
