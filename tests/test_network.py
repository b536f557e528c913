"""Tests for the Network DAG: ordering, refcounts, aliasing, regions."""

import pytest

from repro.graph import (
    Activation,
    Conv2D,
    FullyConnected,
    GraphError,
    Input,
    LayerKind,
    Network,
    NetworkBuilder,
    Softmax,
)

from conftest import make_fork_join_cnn, make_linear_cnn


class TestTopology:
    def test_forward_schedule_is_topological(self, linear_cnn):
        schedule = linear_cnn.forward_schedule()
        for index in schedule:
            for producer in linear_cnn[index].producers:
                assert schedule.index(producer) < schedule.index(index)

    def test_backward_schedule_is_reverse_and_skips_input(self, linear_cnn):
        backward = linear_cnn.backward_schedule()
        assert backward == sorted(backward, reverse=True)
        assert 0 not in backward
        assert len(backward) == len(linear_cnn) - 1

    def test_declaration_order_agnostic(self):
        # Layers given in scrambled order still topo-sort correctly.
        layers = [
            Softmax("s", inputs=["f"]),
            FullyConnected("f", inputs=["c"], out_features=10),
            Input("in", shape=(2, 3, 8, 8)),
            Conv2D("c", inputs=["in"], out_channels=4, kernel=3, pad=1),
        ]
        net = Network("scrambled", layers)
        assert [n.name for n in net] == ["in", "c", "f", "s"]

    def test_cycle_detected(self):
        layers = [
            Input("in", shape=(2, 3, 8, 8)),
            Conv2D("a", inputs=["b"], out_channels=4),
            Conv2D("b", inputs=["a"], out_channels=4),
        ]
        with pytest.raises(GraphError, match="cycle"):
            Network("cyclic", layers)

    def test_duplicate_names_rejected(self):
        layers = [
            Input("in", shape=(2, 3, 8, 8)),
            Conv2D("c", inputs=["in"], out_channels=4),
            Conv2D("c", inputs=["in"], out_channels=4),
        ]
        with pytest.raises(GraphError, match="duplicate"):
            Network("dup", layers)

    def test_unknown_input_rejected(self):
        layers = [
            Input("in", shape=(2, 3, 8, 8)),
            Conv2D("c", inputs=["ghost"], out_channels=4),
        ]
        with pytest.raises(GraphError, match="unknown input"):
            Network("ghost", layers)

    def test_exactly_one_input_required(self):
        with pytest.raises(GraphError, match="exactly one Input"):
            Network("none", [Conv2D("c", inputs=[], out_channels=4)])
        layers = [
            Input("a", shape=(2, 3, 8, 8)),
            Input("b", shape=(2, 3, 8, 8)),
            Conv2D("c", inputs=["a"], out_channels=4),
        ]
        with pytest.raises(GraphError, match="exactly one Input"):
            Network("two", layers)

    def test_empty_network_rejected(self):
        with pytest.raises(GraphError):
            Network("empty", [])


class TestRefcounts:
    def test_linear_chain_has_refcount_one(self, linear_cnn):
        for node in linear_cnn:
            if node.consumers:
                assert node.refcount >= 1

    def test_fork_has_refcount_two(self, fork_join_cnn):
        fork = fork_join_cnn.node("stem_relu")
        assert fork.refcount == 2

    def test_join_has_two_producers(self, fork_join_cnn):
        join = fork_join_cnn.node("join")
        assert len(join.producers) == 2


class TestInPlaceAliasing:
    def test_relu_aliases_conv_storage(self, linear_cnn):
        relu = linear_cnn.node("relu_1")
        conv = linear_cnn.node("conv_1")
        assert relu.storage_index == conv.index
        assert relu.in_place
        assert linear_cnn.storage_owner(relu.index) is conv

    def test_chained_in_place_collapses_to_one_owner(self):
        net = (
            NetworkBuilder("chain", (2, 3, 8, 8))
            .conv(4, kernel=3, pad=1, name="c")
            .relu(name="r").dropout(name="d")
            .fc(10, name="f").softmax().build()
        )
        c = net.node("c").index
        assert net.node("r").storage_index == c
        assert net.node("d").storage_index == c

    def test_in_place_disabled_when_producer_forks(self):
        # A ReLU directly on a fork point must not run in-place: it would
        # corrupt the sibling branch's input.
        b = NetworkBuilder("fork-relu", (2, 3, 8, 8))
        b.conv(4, kernel=3, pad=1, name="c")
        fork = b.tap()
        b.relu(name="r", after=fork)
        left = b.tap()
        b.conv(4, kernel=1, name="side", after=fork).relu(name="side_relu")
        right = b.tap()
        b.concat([left, right], name="j")
        b.fc(10, name="f").softmax()
        net = b.build()
        assert not net.node("r").in_place


class TestRegions:
    def test_split_at_first_fc(self, linear_cnn):
        fc_index = linear_cnn.node("fc_1").index
        for node in linear_cnn:
            assert node.is_feature_extraction == (node.index < fc_index)

    def test_feature_and_classifier_partition(self, linear_cnn):
        feat = linear_cnn.feature_extraction_nodes
        clsf = linear_cnn.classifier_nodes
        assert len(feat) + len(clsf) == len(linear_cnn)


class TestAccessors:
    def test_node_by_name(self, linear_cnn):
        assert linear_cnn.node("conv_1").kind is LayerKind.CONV

    def test_unknown_name_raises(self, linear_cnn):
        with pytest.raises(GraphError):
            linear_cnn.node("nope")

    def test_conv_layers(self, linear_cnn):
        assert [n.name for n in linear_cnn.conv_layers] == ["conv_1", "conv_2"]

    def test_output_node_is_softmax(self, linear_cnn):
        assert linear_cnn.output_node.kind is LayerKind.SOFTMAX

    def test_batch_size(self, linear_cnn):
        assert linear_cnn.batch_size == 4

    def test_total_weight_bytes_positive(self, linear_cnn):
        assert linear_cnn.total_weight_bytes() > 0

    def test_weight_sizes_are_set_at_build(self, linear_cnn):
        for node in linear_cnn:
            specs = [s for s in (node.weight_spec, node.bias_spec) if s]
            assert node.weight_tensor_bytes == sum(s.nbytes for s in specs)
            assert node.weight_bytes == node.weight_tensor_bytes
        # Derived sizes are not part of a node's identity.
        twin = make_linear_cnn()
        assert twin.node("conv_1") == linear_cnn.node("conv_1")

    def test_summary_mentions_every_layer(self, fork_join_cnn):
        text = fork_join_cnn.summary()
        for node in fork_join_cnn:
            assert node.name in text


class TestWithBatchSize:
    def test_rescales_every_spec(self, linear_cnn):
        big = linear_cnn.with_batch_size(32)
        assert big.batch_size == 32
        for small_node, big_node in zip(linear_cnn, big):
            assert big_node.output_spec.batch == 32
            assert big_node.output_spec.shape[1:] == small_node.output_spec.shape[1:]

    def test_weights_unchanged(self, linear_cnn):
        big = linear_cnn.with_batch_size(32)
        assert big.total_weight_bytes() == linear_cnn.total_weight_bytes()

    def test_original_untouched(self, linear_cnn):
        linear_cnn.with_batch_size(32)
        assert linear_cnn.batch_size == 4
