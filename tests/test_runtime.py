"""Tests for the functional training runtime under memory managers."""

import numpy as np
import pytest

from repro.core import TransferPolicy
from repro.graph import NetworkBuilder
from repro.numerics import (
    DeviceOOMError,
    HeapError,
    TrainingRuntime,
    make_batch,
)

from conftest import make_deep_cnn, make_fork_join_cnn, make_linear_cnn


POLICIES = {
    "none": TransferPolicy.none,
    "all": TransferPolicy.vdnn_all,
    "conv": TransferPolicy.vdnn_conv,
}


def run_losses(factory, policy_name, steps=4, seed=0, **kwargs):
    runtime = TrainingRuntime(factory(), POLICIES[policy_name](), seed=seed,
                              **kwargs)
    batches = [make_batch(runtime.network.input_node.output_spec.shape, 10, s)
               for s in range(steps)]
    return [runtime.train_step(x, y).loss for x, y in batches], runtime


class TestBitIdenticalTraining:
    @pytest.mark.parametrize("policy", ["all", "conv"])
    def test_linear_network(self, policy):
        ref, _ = run_losses(make_linear_cnn, "none")
        got, runtime = run_losses(make_linear_cnn, policy)
        assert got == ref
        if policy == "all":
            assert runtime.host.offload_count > 0

    @pytest.mark.parametrize("policy", ["all", "conv"])
    def test_fork_join_network(self, policy):
        ref, _ = run_losses(make_fork_join_cnn, "none")
        got, _ = run_losses(make_fork_join_cnn, policy)
        assert got == ref

    def test_deep_network(self):
        ref, _ = run_losses(make_deep_cnn, "none")
        got, _ = run_losses(make_deep_cnn, "all")
        assert got == ref

    def test_parameters_bitwise_identical_after_training(self):
        _, a = run_losses(make_linear_cnn, "none", steps=3)
        _, b = run_losses(make_linear_cnn, "all", steps=3)
        assert a.parameter_fingerprint() == b.parameter_fingerprint()

    def test_momentum_preserves_identity(self):
        ref, _ = run_losses(make_linear_cnn, "none", momentum=0.9)
        got, _ = run_losses(make_linear_cnn, "all", momentum=0.9)
        assert got == ref

    def test_dropout_masks_deterministic_across_policies(self):
        # The network has dropout via the budget-cnn shape.
        def factory():
            return (NetworkBuilder("drop-cnn", (4, 3, 8, 8))
                    .conv(8, kernel=3, pad=1).relu().pool()
                    .fc(16).relu().dropout(0.5)
                    .fc(10).softmax().build())
        ref, _ = run_losses(factory, "none")
        got, _ = run_losses(factory, "all")
        assert got == ref


class TestMemoryBehaviour:
    def test_vdnn_reduces_device_peak_on_deep_net(self):
        def factory():
            return make_deep_cnn(depth=8, batch=4, size=16)
        _, base = run_losses(factory, "none", steps=1)
        _, vdnn = run_losses(factory, "all", steps=1)
        assert vdnn.device.peak_bytes < base.device.peak_bytes

    def test_budget_enforced(self):
        _, probe = run_losses(make_deep_cnn, "none", steps=1)
        budget = int(probe.device.peak_bytes * 0.8)
        runtime = TrainingRuntime(make_deep_cnn(), TransferPolicy.none(),
                                  device_budget_bytes=budget, seed=0)
        images, labels = make_batch((2, 3, 8, 8), 10, 0)
        with pytest.raises(DeviceOOMError):
            runtime.train_step(images, labels)

    def test_vdnn_trains_under_budget_where_baseline_cannot(self):
        def factory():
            return make_deep_cnn(depth=8, batch=4, size=16)
        _, base = run_losses(factory, "none", steps=1)
        _, vdnn = run_losses(factory, "all", steps=1)
        budget = (base.device.peak_bytes + vdnn.device.peak_bytes) // 2

        images, labels = make_batch((4, 3, 16, 16), 10, 0)
        constrained = TrainingRuntime(factory(), TransferPolicy.vdnn_all(),
                                      device_budget_bytes=budget, seed=0)
        result = constrained.train_step(images, labels)
        assert result.loss > 0
        with pytest.raises(DeviceOOMError):
            TrainingRuntime(factory(), TransferPolicy.none(),
                            device_budget_bytes=budget, seed=0
                            ).train_step(images, labels)

    def test_no_transient_buffers_between_steps(self):
        _, runtime = run_losses(make_linear_cnn, "all", steps=2)
        assert runtime.transient_keys() == set()

    def test_offloads_matched_by_prefetches(self):
        _, runtime = run_losses(make_linear_cnn, "all", steps=3)
        assert runtime.host.offload_count == runtime.host.prefetch_count
        assert runtime.host.live_bytes == 0

    def test_no_demand_fetches_with_figure10_prefetcher(self):
        runtime = TrainingRuntime(make_deep_cnn(depth=6),
                                  TransferPolicy.vdnn_all(), seed=0)
        images, labels = make_batch((2, 3, 8, 8), 10, 0)
        result = runtime.train_step(images, labels)
        assert result.demand_fetch_count == 0

    def test_host_budget_enforced(self):
        runtime = TrainingRuntime(make_deep_cnn(depth=6),
                                  TransferPolicy.vdnn_all(),
                                  host_budget_bytes=16, seed=0)
        images, labels = make_batch((2, 3, 8, 8), 10, 0)
        with pytest.raises(DeviceOOMError):
            runtime.train_step(images, labels)


class TestRegressions:
    def test_avgpool_after_bare_conv_under_offload(self):
        """Regression: avg-pool backward must not touch its (released)
        input buffer — conv->avgpool with no ReLU between means the conv
        output is dead after forward and is freed, not offloaded."""
        from repro.graph import PoolMode

        def factory():
            return (NetworkBuilder("conv-avgpool", (2, 3, 8, 8))
                    .conv(4, kernel=3, pad=1)
                    .pool(mode=PoolMode.AVG)
                    .fc(10).softmax().build())

        ref, _ = run_losses(factory, "none", steps=3)
        got, _ = run_losses(factory, "all", steps=3)
        assert got == ref


class TestTrainingDynamics:
    def test_loss_decreases_on_fixed_batch(self):
        runtime = TrainingRuntime(make_linear_cnn(), TransferPolicy.vdnn_all(),
                                  seed=0, learning_rate=0.05)
        images, labels = make_batch((4, 3, 16, 16), 10, 0)
        losses = [runtime.train_step(images, labels).loss for _ in range(10)]
        assert losses[-1] < losses[0]

    def test_weights_change_after_step(self):
        runtime = TrainingRuntime(make_linear_cnn(), TransferPolicy.none(), seed=0)
        before = runtime.weights("conv_1").copy()
        images, labels = make_batch((4, 3, 16, 16), 10, 0)
        runtime.train_step(images, labels)
        assert not np.array_equal(before, runtime.weights("conv_1"))

    def test_different_seeds_differ(self):
        a, _ = run_losses(make_linear_cnn, "none", seed=0, steps=1)
        b, _ = run_losses(make_linear_cnn, "none", seed=1, steps=1)
        assert a != b

    def test_train_convenience_loop(self):
        runtime = TrainingRuntime(make_linear_cnn(), TransferPolicy.none(), seed=0)
        batches = [make_batch((4, 3, 16, 16), 10, s) for s in range(3)]
        results = runtime.train(batches)
        assert len(results) == 3


class TestInference:
    def test_predict_returns_probabilities(self):
        runtime = TrainingRuntime(make_linear_cnn(), TransferPolicy.none(), seed=0)
        images, _ = make_batch((4, 3, 16, 16), 10, 0)
        probs = runtime.predict(images)
        assert probs.shape == (4, 10)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(4), rtol=1e-5)

    def test_predict_frees_everything(self):
        runtime = TrainingRuntime(make_linear_cnn(), TransferPolicy.vdnn_all(),
                                  seed=0)
        images, _ = make_batch((4, 3, 16, 16), 10, 0)
        runtime.predict(images)
        assert runtime.transient_keys() == set()

    def test_predict_uses_less_memory_than_training(self):
        train_rt = TrainingRuntime(make_deep_cnn(depth=6), TransferPolicy.none(),
                                   seed=0)
        infer_rt = TrainingRuntime(make_deep_cnn(depth=6), TransferPolicy.none(),
                                   seed=0)
        images, labels = make_batch((2, 3, 8, 8), 10, 0)
        train_rt.train_step(images, labels)
        infer_rt.predict(images)
        assert infer_rt.device.peak_bytes < train_rt.device.peak_bytes


class TestValidation:
    def test_requires_terminal_softmax(self):
        net = (NetworkBuilder("no-softmax", (2, 3, 8, 8))
               .conv(4, kernel=3, pad=1).fc(10).build())
        with pytest.raises(ValueError, match="Softmax"):
            TrainingRuntime(net)

    def test_batch_shape_checked(self):
        runtime = TrainingRuntime(make_linear_cnn(), TransferPolicy.none(), seed=0)
        images, labels = make_batch((2, 3, 16, 16), 10, 0)  # wrong batch
        with pytest.raises(ValueError, match="batch shape"):
            runtime.train_step(images, labels)

    def test_host_heap_records_zero_fraction(self):
        from repro.numerics import HostHeap
        host = HostHeap()
        host.offload("Y1", np.array([0.0, 1.0, 0.0, 2.0], dtype=np.float32))
        assert host.zero_fractions == {"Y1": 0.5}

    def test_heap_misuse_raises(self):
        from repro.numerics import DeviceHeap
        heap = DeviceHeap(1 << 20)
        heap.store("a", np.zeros(4, dtype=np.float32))
        with pytest.raises(HeapError):
            heap.store("a", np.zeros(4, dtype=np.float32))
        with pytest.raises(HeapError):
            heap.get("missing")
        with pytest.raises(HeapError):
            heap.free("missing")
