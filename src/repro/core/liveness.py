"""Storage-level liveness analysis of one training iteration.

vDNN's decisions are about *storages*, not layers: an in-place ACTV
shares one buffer with its producer CONV, and a fork (GoogLeNet) gives
one buffer several consumer layers.  This module flattens the network's
alias/refcount structure into per-storage facts:

* when the buffer's last **forward** reader runs (the only point where
  offload/release may be initiated — the paper's refcount gate, Fig. 3);
* which layers read it during **backward** (CONV/POOL/LRN read their X,
  ACTV/LRN/POOL read their Y), hence whether it must survive forward at
  all and when backward is done with it;
* the matching **gradient** buffer's lifetime (allocated when the first
  backward consumer writes into it, freed right after the storage
  owner's backward completes — "vDNN immediately frees up a layer's Y
  and dY once this layer's backward computation is complete", Fig. 8).

Both the event-driven simulator and the numpy runtime consume exactly
this analysis, so the performance model and the functional execution can
never disagree about lifetimes.

A network is immutable once built, so its analysis is too: every pass
reads the one :func:`liveness_of` keeps per network.  The analysis holds
no reference to its network (lint LINT206), so that weak-keyed table
never keeps a network alive.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..graph.layer import LayerKind
from ..graph.network import Network


@dataclass(frozen=True)
class StorageInfo:
    """Liveness facts for one feature-map buffer (and its gradient twin).

    Frozen, with tuple fields: every plan of a network and every pass
    over it share these objects (:func:`liveness_of`), so none may
    change them.

    Attributes:
        owner: index of the node that allocates/owns the buffer.
        chain: owner plus every in-place layer aliased onto it,
            in topological order.
        nbytes: buffer size.
        forward_release_at: index of the last forward reader; after that
            layer's forward kernel the buffer may be offloaded/released.
        backward_users: indices of layers whose backward kernels read
            this buffer (as their X or their Y), descending.
        gradient_writers: indices of layers whose backward writes a
            gradient into the twin buffer, descending.  Empty for the
            input batch (no dX is computed for data).
    """

    owner: int
    chain: Tuple[int, ...]
    nbytes: int
    forward_release_at: int
    backward_users: Tuple[int, ...] = ()
    gradient_writers: Tuple[int, ...] = ()

    @property
    def needed_backward(self) -> bool:
        return bool(self.backward_users)

    @property
    def first_backward_use(self) -> int:
        """Highest-index backward reader — the first one to run."""
        return self.backward_users[0]

    @property
    def backward_release_after(self) -> int:
        """Lowest-index backward reader — free the buffer after its BWD."""
        return self.backward_users[-1]

    @property
    def needs_gradient(self) -> bool:
        return bool(self.gradient_writers)

    @property
    def gradient_alloc_at(self) -> int:
        """The backward step that first writes the gradient twin."""
        return self.gradient_writers[0]

    @property
    def gradient_release_after(self) -> int:
        """Free the gradient twin after this node's backward (the owner's)."""
        return self.owner


class LivenessAnalysis:
    """Per-storage liveness for one network.

    Holds derived facts only, never the network: each node's output
    storage and the distinct storages it reads, both looked up in O(1).
    """

    def __init__(self, network: Network):
        self.storages: Dict[int, StorageInfo] = {}
        self._storage_of_node: Dict[int, int] = {}
        self._inputs: Tuple[Tuple[StorageInfo, ...], ...] = ()
        self._analyze(network)

    # ------------------------------------------------------------------
    def _analyze(self, network: Network) -> None:
        chains: Dict[int, List[int]] = {}
        for node in network:
            owner = node.storage_index
            chains.setdefault(owner, []).append(node.index)
            self._storage_of_node[node.index] = owner

        for owner, chain in chains.items():
            consumers = sorted(
                {c for idx in chain for c in network[idx].consumers
                 if network[c].storage_index != owner}
            )
            # Last forward reader; the final network output has none and
            # is "read" by the loss right at the forward/backward pivot,
            # which we attribute to the chain's last member.
            forward_release_at = consumers[-1] if consumers else chain[-1]

            backward_users = set()
            for idx in chain:
                if network[idx].layer.backward_needs_y:
                    backward_users.add(idx)
            for c in consumers:
                if network[c].layer.backward_needs_x:
                    backward_users.add(c)

            # Gradient writers: every consumer's backward adds its dX
            # contribution; in-place chain members rewrite it in place.
            # The terminal storage's gradient is written by the loss,
            # modeled as the chain's last member.  The input batch gets
            # no gradient at all.
            gradient_writers: Tuple[int, ...] = ()
            if network[owner].kind is not LayerKind.INPUT:
                writers = set(consumers) | {
                    idx for idx in chain[1:]  # in-place members
                }
                if not consumers:
                    writers.add(chain[-1])
                gradient_writers = tuple(sorted(writers, reverse=True))
                if not gradient_writers:
                    gradient_writers = (chain[-1],)

            self.storages[owner] = StorageInfo(
                owner=owner,
                chain=tuple(chain),
                nbytes=network[owner].output_spec.nbytes,
                forward_release_at=forward_release_at,
                backward_users=tuple(sorted(backward_users, reverse=True)),
                gradient_writers=gradient_writers,
            )

        # Each node's distinct input storages, in first-read order.
        storages, storage_of_node = self.storages, self._storage_of_node
        self._inputs = tuple(
            tuple(storages[owner] for owner in dict.fromkeys(
                storage_of_node[p] for p in node.producers))
            for node in network)

    # ------------------------------------------------------------------
    def storage_of(self, node_index: int) -> StorageInfo:
        """The storage holding node ``node_index``'s output Y."""
        return self.storages[self._storage_of_node[node_index]]

    def input_storages(self, node_index: int) -> Tuple[StorageInfo, ...]:
        """Distinct storages a node reads as its input X."""
        return self._inputs[node_index]

    def all_storages(self) -> List[StorageInfo]:
        return [self.storages[k] for k in sorted(self.storages)]

    def total_feature_map_bytes(self) -> int:
        """Sum of all distinct feature-map buffers (what Figure 4 plots)."""
        return sum(s.nbytes for s in self.storages.values())

    def max_gradient_bytes(self) -> int:
        """Largest gradient twin — the baseline sizes its two reused
        dY/dX ping-pong buffers to this (Section IV-A)."""
        return max(
            (s.nbytes for s in self.storages.values() if s.needs_gradient),
            default=0,
        )


#: network -> its analysis.  Weak-keyed, and the analysis holds no
#: network, so an entry dies with its network.
_ANALYSES: "weakref.WeakKeyDictionary[Network, LivenessAnalysis]" = \
    weakref.WeakKeyDictionary()


def liveness_of(network: Network) -> LivenessAnalysis:
    """The one :class:`LivenessAnalysis` of ``network``, built on first
    use.  Networks are immutable, so every pass may share it."""
    analysis = _ANALYSES.get(network)
    if analysis is None:
        analysis = _ANALYSES[network] = LivenessAnalysis(network)
    return analysis
