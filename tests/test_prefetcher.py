"""Tests for the Figure-10 prefetch search.

``find_prefetch_layer`` answers Fig. 10 with one bisect into the
waiting index and one CONV-floor lookup.  :func:`_fig10_oracle` below is
the paper's downward walk transcribed verbatim; random interleavings of
every state mutation and search must agree with it step for step.  The
executor, the static plan interpreter and the numpy runtime all call the
same search, and the last class checks they claim the same targets.
"""

from typing import Dict, List, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.trace import OpKind
from repro.core import (AlgoConfig, PrefetchState, TransferPolicy,
                        find_prefetch_layer)
from repro.core import executor, interpret, walk
from repro.core.plan import compiled_plan
from repro.graph import LayerKind, Network
from repro.hw import PAPER_SYSTEM
from repro.numerics import TrainingRuntime, make_batch, runtime
from repro.zoo import build

from conftest import make_deep_cnn, make_linear_cnn
from test_properties import random_dag_network


@pytest.fixture
def net():
    return make_deep_cnn(depth=4)


class TestFindPrefetchLayer:
    def test_finds_closest_offloaded_layer(self, net):
        state = PrefetchState.for_network(net)
        conv2 = net.node("conv_2").index
        conv3 = net.node("conv_3").index
        state.mark_offloaded(conv2)
        assert find_prefetch_layer(net, state, conv3) == conv2

    def test_claims_each_layer_once(self, net):
        state = PrefetchState.for_network(net)
        conv2 = net.node("conv_2").index
        conv3 = net.node("conv_3").index
        state.mark_offloaded(conv2)
        assert find_prefetch_layer(net, state, conv3) == conv2
        # Second call during a later layer must not return it again.
        assert find_prefetch_layer(net, state, conv3) is None

    def test_window_bounded_by_conv(self, net):
        # conv_1 is offloaded but conv_2 (not offloaded, CONV) sits in
        # between: the search from conv_3 stops at conv_2 (Fig. 10 line 14).
        state = PrefetchState.for_network(net)
        conv1 = net.node("conv_1").index
        conv3 = net.node("conv_3").index
        state.mark_offloaded(conv1)
        assert find_prefetch_layer(net, state, conv3) is None

    def test_unbounded_window_reaches_past_conv(self, net):
        state = PrefetchState.for_network(net)
        conv1 = net.node("conv_1").index
        conv3 = net.node("conv_3").index
        state.mark_offloaded(conv1)
        assert find_prefetch_layer(net, state, conv3,
                                   bounded_window=False) == conv1

    def test_search_skips_non_conv_layers(self, net):
        # relu between current and the offloaded conv does not stop it.
        state = PrefetchState.for_network(net)
        conv3 = net.node("conv_3").index
        relu3 = net.node("relu_3").index
        state.mark_offloaded(conv3)
        assert find_prefetch_layer(net, state, relu3 + 1) == conv3

    def test_nothing_pending_returns_none(self, net):
        state = PrefetchState.for_network(net)
        assert find_prefetch_layer(net, state, len(net) - 1) is None

    def test_layer_zero_has_no_predecessors(self, net):
        state = PrefetchState.for_network(net)
        assert find_prefetch_layer(net, state, 0) is None


class TestPrefetchState:
    def test_pending_lists_unprefetched(self, net):
        state = PrefetchState.for_network(net)
        conv1 = net.node("conv_1").index
        conv2 = net.node("conv_2").index
        state.mark_offloaded(conv1)
        state.mark_offloaded(conv2)
        assert state.pending() == [conv1, conv2]
        find_prefetch_layer(net, state, conv2 + 1)  # claims conv2
        assert state.pending() == [conv1]

    def test_every_offloaded_layer_eventually_claimed(self):
        """Walking backward layer-by-layer drains all offloaded flags —
        the guarantee that makes the end-of-layer sync sufficient."""
        net = make_deep_cnn(depth=6)
        state = PrefetchState.for_network(net)
        from repro.graph import LayerKind
        for node in net:
            if node.kind in (LayerKind.CONV, LayerKind.POOL):
                state.mark_offloaded(node.index)
        claimed = []
        for index in net.backward_schedule():
            target = find_prefetch_layer(net, state, index)
            if target is not None:
                claimed.append(target)
                # Claimed strictly before its own backward step runs.
                assert target < index
        assert state.pending() == []


class TestBoundaryErrors:
    def test_mark_offloaded_out_of_range(self, net):
        state = PrefetchState.for_network(net)
        with pytest.raises(ValueError, match=f"{len(net) + 3}.*{len(net)} "):
            state.mark_offloaded(len(net) + 3)
        assert state.pending() == []

    @pytest.mark.parametrize("method", ["claim", "unclaim"])
    def test_claim_and_unclaim_out_of_range(self, net, method):
        state = PrefetchState.for_network(net)
        with pytest.raises(ValueError, match="out of range"):
            getattr(state, method)(-1)

    @pytest.mark.parametrize("offset", [0, 5])
    def test_search_out_of_range(self, net, offset):
        state = PrefetchState.for_network(net)
        bad = len(net) + offset
        with pytest.raises(ValueError, match=f"{bad}.*{len(net)} layers"):
            find_prefetch_layer(net, state, bad)

    def test_negative_search_id(self, net):
        state = PrefetchState.for_network(net)
        with pytest.raises(ValueError, match="-1"):
            find_prefetch_layer(net, state, -1)


# ----------------------------------------------------------------------
# Fig. 10 oracle
# ----------------------------------------------------------------------
def _fig10_oracle(network: Network, offloaded: Dict[int, bool],
                  prefetched: Dict[int, bool], current_layer_id: int,
                  bounded_window: bool) -> Optional[int]:
    """``Network::findPrefetchLayer`` (Fig. 10), transcribed verbatim."""
    for layer_id in range(current_layer_id - 1, -1, -1):
        if offloaded[layer_id] and not prefetched[layer_id]:
            prefetched[layer_id] = True
            return layer_id
        if bounded_window and network[layer_id].kind is LayerKind.CONV:
            return None
    return None


_ZOO_GRAPHS: Dict[str, Network] = {}


def _zoo_graph(name: str) -> Network:
    if name not in _ZOO_GRAPHS:
        _ZOO_GRAPHS[name] = build(name, 2)
    return _ZOO_GRAPHS[name]


_OPS = ("mark", "claim", "unclaim", "search")


@st.composite
def _network_and_ops(draw):
    if draw(st.booleans()):
        network = draw(random_dag_network())
    else:
        network = _zoo_graph(draw(st.sampled_from(
            ["alexnet", "googlenet", "lstm", "resnet18"])))
    layer = st.integers(0, len(network) - 1)
    ops = draw(st.lists(
        st.tuples(st.sampled_from(_OPS), layer), min_size=1, max_size=80))
    return network, ops


class TestFig10Oracle:
    @settings(max_examples=150, deadline=None)
    @given(case=_network_and_ops(), bounded=st.booleans(),
           floor_from_plan=st.booleans())
    def test_indexed_search_matches_fig10(self, case, bounded,
                                          floor_from_plan):
        network, ops = case
        floor = None
        if floor_from_plan:
            floor = compiled_plan(network, PAPER_SYSTEM,
                                  AlgoConfig.memory_optimal(network)
                                  ).conv_floor
        state = PrefetchState.for_network(network, floor)
        offloaded = {node.index: False for node in network}
        prefetched = {node.index: False for node in network}
        for op, layer in ops:
            if op == "mark":
                state.mark_offloaded(layer)
                offloaded[layer] = True
            elif op == "claim":
                state.claim(layer)
                prefetched[layer] = True
            elif op == "unclaim":
                state.unclaim(layer)
                prefetched[layer] = False
            else:
                expected = _fig10_oracle(network, offloaded, prefetched,
                                         layer, bounded)
                assert find_prefetch_layer(
                    network, state, layer, bounded_window=bounded) \
                    == expected
            assert state.offloaded == offloaded
            assert state.prefetched == prefetched
            assert state.pending() == [
                i for i in sorted(offloaded)
                if offloaded[i] and not prefetched[i]]

    @pytest.mark.parametrize("bounded", [True, False])
    def test_backward_walk_matches_fig10_on_zoo(self, bounded):
        for name in ("alexnet", "googlenet", "resnet18"):
            network = _zoo_graph(name)
            state = PrefetchState.for_network(network)
            offloaded = {node.index: False for node in network}
            prefetched = dict(offloaded)
            for node in network:
                if node.kind in (LayerKind.CONV, LayerKind.POOL):
                    state.mark_offloaded(node.index)
                    offloaded[node.index] = True
            for index in network.backward_schedule():
                assert find_prefetch_layer(
                    network, state, index, bounded_window=bounded) \
                    == _fig10_oracle(network, offloaded, prefetched,
                                     index, bounded)


# ----------------------------------------------------------------------
# The walkers claim the same targets: the numpy runtime's own walk, and
# the one vDNN walk under its timed and abstract domains
# ----------------------------------------------------------------------
def _recording(monkeypatch, module) -> List[int]:
    claimed: List[int] = []

    def search(*args, **kwargs):
        target = find_prefetch_layer(*args, **kwargs)
        if target is not None:
            claimed.append(target)
        return target

    monkeypatch.setattr(module, "find_prefetch_layer", search)
    return claimed


_POLICIES = {"all": TransferPolicy.vdnn_all, "conv": TransferPolicy.vdnn_conv,
             "comp": TransferPolicy.vdnn_comp}


class TestWalkersAgree:
    @pytest.mark.parametrize("make", [make_linear_cnn, make_deep_cnn])
    @pytest.mark.parametrize("policy", ["all", "conv"])
    def test_runtime_claims_what_the_executor_claims(
            self, monkeypatch, make, policy):
        network = make()
        transfer = _POLICIES[policy]()
        simulated = _recording(monkeypatch, walk)
        executor.simulate_vdnn(network, PAPER_SYSTEM, transfer,
                               AlgoConfig.memory_optimal(network))
        trained = _recording(monkeypatch, runtime)
        images, labels = make_batch(network.input_node.output_spec.shape,
                                    10, 0)
        TrainingRuntime(network, transfer, seed=0).train_step(images, labels)
        assert simulated
        assert trained == simulated

    @pytest.mark.parametrize("name", ["alexnet", "googlenet"])
    @pytest.mark.parametrize("policy", ["all", "conv", "comp"])
    def test_interpreter_claims_the_traced_prefetch_targets(
            self, monkeypatch, name, policy):
        network = build(name, 8)
        transfer = _POLICIES[policy]()
        algos = AlgoConfig.performance_optimal(network)
        result = executor.simulate_vdnn(network, PAPER_SYSTEM, transfer,
                                        algos, verify=True)
        traced = list(dict.fromkeys(
            op.target_layer
            for op in result.schedule_trace.of_kind(OpKind.PREFETCH)
            if not op.demand))
        interpreted = _recording(monkeypatch, walk)
        interpret.interpret_plan(
            network, PAPER_SYSTEM,
            compiled_plan(network, PAPER_SYSTEM, algos), transfer)
        assert traced
        assert interpreted == traced
