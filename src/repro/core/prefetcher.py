"""The vDNN prefetch-candidate search (paper Figure 10), indexed.

Before ``stream_compute`` starts a layer's backward computation, vDNN
searches the *preceding* layers (lower indices) for the closest one that
offloaded its input feature maps and has not been prefetched yet.  The
search window is deliberately bounded: it stops at the first CONV layer
that does not itself need prefetching, "guaranteeing that the prefetched
X will not end up being used too far away in the future".

The paper's ``findPrefetchLayer`` walks layer ids down one at a time.
This module answers the same question in O(log L) from two indexes:

* :attr:`PrefetchState.waiting` — the ascending ids that are offloaded
  and not yet prefetched, kept in step with the ``offloaded`` /
  ``prefetched`` flags by every mutator;
* the CONV floor — ``floor[c]`` is the highest CONV id below ``c`` (or
  −1), a network fact compiled once into
  :class:`~repro.core.plan.CompiledPlan`.

The downward walk claims the largest waiting id ``p`` below the current
layer unless it first meets a CONV layer that is not waiting; the
first CONV it meets is ``floor[current]``, so the walk claims ``p``
exactly when ``p >= floor[current]``.  The executor, the static plan
interpreter and the numpy runtime all call :func:`find_prefetch_layer`,
so they agree by construction.  The verbatim transcription of Fig. 10
lives on in ``tests/test_prefetcher.py`` as the oracle this search is
checked against.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..graph.layer import LayerKind
from ..graph.network import Network

if TYPE_CHECKING:
    from ..obs import Instrumentation


def conv_floor(network: Network) -> Tuple[int, ...]:
    """``floor[c]``: the highest CONV layer id below ``c``, or −1."""
    floor: List[int] = []
    last = -1
    for node in network:
        floor.append(last)
        if node.kind is LayerKind.CONV:
            last = node.index
    return tuple(floor)


@dataclass
class PrefetchState:
    """The ``layers[n]->offloaded`` / ``->prefetched`` flags of Fig. 10,
    plus the ``waiting`` index and CONV ``floor`` the search reads."""

    offloaded: Dict[int, bool] = field(default_factory=dict)
    prefetched: Dict[int, bool] = field(default_factory=dict)
    floor: Sequence[int] = ()
    waiting: List[int] = field(default_factory=list)

    @classmethod
    def for_network(cls, network: Network,
                    floor: Optional[Sequence[int]] = None
                    ) -> "PrefetchState":
        """Fresh flags; ``floor`` comes from the plan when the caller
        has one (:attr:`CompiledPlan.conv_floor`), else one O(L) pass."""
        layers = range(len(network))
        return cls(
            offloaded=dict.fromkeys(layers, False),
            prefetched=dict.fromkeys(layers, False),
            floor=conv_floor(network) if floor is None else floor,
        )

    def _check(self, layer_index: int) -> None:
        if layer_index not in self.offloaded:
            raise ValueError(
                f"layer id {layer_index} is out of range for a network "
                f"of {len(self.offloaded)} layers")

    def mark_offloaded(self, layer_index: int) -> None:
        self._check(layer_index)
        if not self.offloaded[layer_index]:
            self.offloaded[layer_index] = True
            if not self.prefetched[layer_index]:
                insort(self.waiting, layer_index)

    def claim(self, layer_index: int) -> None:
        """Mark a layer as prefetched so the search skips it from now on."""
        self._check(layer_index)
        if self.offloaded[layer_index] and not self.prefetched[layer_index]:
            waiting = self.waiting
            del waiting[bisect_left(waiting, layer_index)]
        self.prefetched[layer_index] = True

    def unclaim(self, layer_index: int) -> None:
        """Roll back a claim whose prefetch failed to materialise.

        The executor calls this when the pool allocation or the DMA for
        a claimed layer fails permanently: the layer's X is still only
        in host memory, so it must stay eligible for a later prefetch
        (or the demand-fetch safety net) instead of being silently lost.
        """
        self._check(layer_index)
        if self.offloaded[layer_index] and self.prefetched[layer_index]:
            insort(self.waiting, layer_index)
        self.prefetched[layer_index] = False

    def pending(self) -> List[int]:
        """Layers offloaded but not yet prefetched, ascending."""
        return list(self.waiting)


def find_prefetch_layer(
    network: Network,
    state: PrefetchState,
    current_layer_id: int,
    bounded_window: bool = True,
    obs: Optional[Instrumentation] = None,
) -> Optional[int]:
    """Pick the layer whose offloaded X should be prefetched now.

    Answers the paper's ``Network::findPrefetchLayer``: the first layer
    below ``current_layer_id`` that is offloaded-and-not-prefetched is
    claimed (its ``prefetched`` flag is set, so each layer is
    prefetched exactly once) and returned, unless a CONV layer that
    does not need prefetching lies in between (line 14 of Fig. 10
    ends the search window there).  One bisect into ``state.waiting``
    and one floor lookup replace the paper's downward walk.

    The claim is made through :meth:`PrefetchState.claim`; a caller
    whose subsequent allocation or DMA fails must call
    :meth:`PrefetchState.unclaim` so the layer is retried rather than
    permanently lost.

    Args:
        bounded_window: set False to disable the CONV-layer bound — the
            ablation of DESIGN.md §5.2 (prefetch as early as possible,
            trading memory savings for scheduling slack).
        obs: optional instrumentation; records search hit/miss and
            claim counts without affecting the search itself.

    Returns:
        The layer id to prefetch, or None when nothing (suitable) is
        pending.

    Raises:
        ValueError: ``current_layer_id`` is not a layer of the network.
    """
    floor = state.floor
    if not 0 <= current_layer_id < len(floor):
        raise ValueError(
            f"layer id {current_layer_id} is out of range for a network "
            f"of {len(floor)} layers")
    waiting = state.waiting
    position = bisect_left(waiting, current_layer_id)
    if position:
        target = waiting[position - 1]
        if not bounded_window or target >= floor[current_layer_id]:
            state.claim(target)
            if obs is not None:
                obs.prefetch_claimed()
            return target
    if obs is not None:
        obs.prefetch_search(False)
    return None
