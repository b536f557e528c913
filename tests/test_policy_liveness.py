"""Tests for TransferPolicy and the storage liveness analysis."""

import dataclasses
import gc
import weakref

import pytest

from repro.core import (LivenessAnalysis, PolicyKind, TransferPolicy,
                        liveness_of)
from repro.graph import LayerKind

from conftest import make_fork_join_cnn, make_linear_cnn


class TestTransferPolicy:
    def test_all_offloads_conv_and_pool(self, linear_cnn):
        policy = TransferPolicy.vdnn_all()
        assert policy.wants_offload(linear_cnn.node("conv_1"))
        assert policy.wants_offload(linear_cnn.node("pool_1"))

    def test_all_never_offloads_actv(self, linear_cnn):
        policy = TransferPolicy.vdnn_all()
        assert not policy.wants_offload(linear_cnn.node("relu_1"))

    def test_all_never_offloads_classifier(self, linear_cnn):
        policy = TransferPolicy.vdnn_all()
        assert not policy.wants_offload(linear_cnn.node("fc_1"))
        assert not policy.wants_offload(linear_cnn.node("softmax_1"))

    def test_conv_offloads_only_conv(self, linear_cnn):
        policy = TransferPolicy.vdnn_conv()
        assert policy.wants_offload(linear_cnn.node("conv_2"))
        assert not policy.wants_offload(linear_cnn.node("pool_1"))

    def test_none_offloads_nothing(self, linear_cnn):
        policy = TransferPolicy.none()
        assert policy.offload_set(linear_cnn) == frozenset()

    def test_custom_set(self, linear_cnn):
        conv2 = linear_cnn.node("conv_2").index
        policy = TransferPolicy.custom([conv2])
        assert policy.wants_offload(linear_cnn.node("conv_2"))
        assert not policy.wants_offload(linear_cnn.node("conv_1"))

    def test_custom_cannot_offload_actv(self, linear_cnn):
        relu = linear_cnn.node("relu_1").index
        policy = TransferPolicy.custom([relu])
        assert not policy.wants_offload(linear_cnn.node("relu_1"))

    def test_offload_set_subset_relation(self, linear_cnn):
        all_set = TransferPolicy.vdnn_all().offload_set(linear_cnn)
        conv_set = TransferPolicy.vdnn_conv().offload_set(linear_cnn)
        assert conv_set <= all_set

    def test_describe(self):
        assert TransferPolicy.vdnn_all().describe() == "vDNN_all"
        assert "custom" in TransferPolicy.custom([1, 2]).describe()
        assert TransferPolicy.custom([1]).kind is PolicyKind.CUSTOM


class TestLivenessLinear:
    def test_every_node_maps_to_a_storage(self, linear_cnn):
        liveness = LivenessAnalysis(linear_cnn)
        for node in linear_cnn:
            assert liveness.storage_of(node.index).owner == node.storage_index

    def test_relu_shares_conv_storage(self, linear_cnn):
        liveness = LivenessAnalysis(linear_cnn)
        conv = linear_cnn.node("conv_1")
        relu = linear_cnn.node("relu_1")
        storage = liveness.storage_of(relu.index)
        assert storage.owner == conv.index
        assert relu.index in storage.chain

    def test_conv_storage_released_in_forward_at_pool(self, linear_cnn):
        # conv_1+relu_1 storage's last forward reader is pool_1.
        liveness = LivenessAnalysis(linear_cnn)
        storage = liveness.storage_of(linear_cnn.node("conv_1").index)
        assert storage.forward_release_at == linear_cnn.node("pool_1").index

    def test_conv_storage_needed_backward(self, linear_cnn):
        liveness = LivenessAnalysis(linear_cnn)
        storage = liveness.storage_of(linear_cnn.node("conv_1").index)
        assert storage.needed_backward
        # Both the ReLU (needs Y) and the max pool (needs X) read it.
        assert linear_cnn.node("relu_1").index in storage.backward_users
        assert linear_cnn.node("pool_1").index in storage.backward_users

    def test_backward_release_is_earliest_user(self, linear_cnn):
        liveness = LivenessAnalysis(linear_cnn)
        storage = liveness.storage_of(linear_cnn.node("conv_1").index)
        assert storage.backward_release_after == min(storage.backward_users)

    def test_input_storage_has_no_gradient(self, linear_cnn):
        liveness = LivenessAnalysis(linear_cnn)
        assert not liveness.storage_of(0).needs_gradient

    def test_input_storage_needed_backward_for_conv_dw(self, linear_cnn):
        # conv_1's dW needs the input batch.
        liveness = LivenessAnalysis(linear_cnn)
        storage = liveness.storage_of(0)
        assert storage.needed_backward
        assert storage.backward_users == (linear_cnn.node("conv_1").index,)

    def test_gradient_lifetime(self, linear_cnn):
        liveness = LivenessAnalysis(linear_cnn)
        conv1 = linear_cnn.node("conv_1")
        storage = liveness.storage_of(conv1.index)
        # Gradient twin born at the highest-index consumer's backward...
        assert storage.gradient_alloc_at == max(storage.gradient_writers)
        # ...and released after the owner's backward.
        assert storage.gradient_release_after == conv1.index

    def test_total_feature_map_bytes_counts_unique_storages(self, linear_cnn):
        liveness = LivenessAnalysis(linear_cnn)
        expected = sum(n.output_spec.nbytes for n in linear_cnn if not n.in_place)
        assert liveness.total_feature_map_bytes() == expected

    def test_max_gradient_bytes(self, linear_cnn):
        liveness = LivenessAnalysis(linear_cnn)
        assert liveness.max_gradient_bytes() == max(
            s.nbytes for s in liveness.all_storages() if s.needs_gradient
        )


class TestLivenessForkJoin:
    def test_fork_storage_has_multiple_consumers(self, fork_join_cnn):
        liveness = LivenessAnalysis(fork_join_cnn)
        stem = fork_join_cnn.node("stem")
        storage = liveness.storage_of(stem.index)
        # Released only at the later branch's forward (refcount gate).
        branch_a = fork_join_cnn.node("branch_a").index
        branch_b = fork_join_cnn.node("branch_b").index
        assert storage.forward_release_at == max(branch_a, branch_b)

    def test_fork_gradient_written_by_both_branches(self, fork_join_cnn):
        liveness = LivenessAnalysis(fork_join_cnn)
        storage = liveness.storage_of(fork_join_cnn.node("stem").index)
        writers = set(storage.gradient_writers)
        assert fork_join_cnn.node("branch_a").index in writers
        assert fork_join_cnn.node("branch_b").index in writers

    def test_input_storages_deduplicated(self, fork_join_cnn):
        liveness = LivenessAnalysis(fork_join_cnn)
        join = fork_join_cnn.node("join")
        storages = liveness.input_storages(join.index)
        owners = [s.owner for s in storages]
        assert len(owners) == len(set(owners)) == 2

    def test_liveness_of_is_one_analysis_per_network(self, fork_join_cnn):
        assert liveness_of(fork_join_cnn) is liveness_of(fork_join_cnn)
        assert liveness_of(fork_join_cnn) is not liveness_of(
            make_fork_join_cnn())

    def test_analysis_does_not_keep_its_network_alive(self):
        network = make_fork_join_cnn()
        liveness = liveness_of(network)
        owners = [s.owner for s in liveness.all_storages()]
        alive = weakref.ref(network)
        del network
        gc.collect()
        assert alive() is None
        assert [s.owner for s in liveness.all_storages()] == owners

    def test_shared_storage_facts_cannot_change(self, fork_join_cnn):
        # Every plan and pass of a network reads these very objects.
        for storage in liveness_of(fork_join_cnn).all_storages():
            for name in ("chain", "backward_users", "gradient_writers"):
                assert isinstance(getattr(storage, name), tuple)
            with pytest.raises(dataclasses.FrozenInstanceError):
                storage.forward_release_at = 0

    def test_all_storages_sorted_by_owner(self, fork_join_cnn):
        liveness = LivenessAnalysis(fork_join_cnn)
        owners = [s.owner for s in liveness.all_storages()]
        assert owners == sorted(owners)


class TestLivenessInference:
    def test_terminal_storage_read_by_loss(self, linear_cnn):
        liveness = LivenessAnalysis(linear_cnn)
        softmax = linear_cnn.node("softmax_1")
        storage = liveness.storage_of(softmax.index)
        assert storage.needed_backward          # softmax backward reads Y
        assert storage.gradient_writers          # loss writes its gradient
