"""Tests for functional (numpy) gradient checkpointing in the runtime."""

import pytest

from repro.core import TransferPolicy
from repro.core.liveness import LivenessAnalysis
from repro.core.recompute import checkpoint_plan
from repro.graph import NetworkBuilder
from repro.numerics import TrainingRuntime, make_batch

from conftest import make_deep_cnn, make_fork_join_cnn, make_linear_cnn


def losses(factory, steps=3, **kwargs):
    runtime = TrainingRuntime(factory(), **kwargs)
    shape = runtime.network.input_node.output_spec.shape
    batches = [make_batch(shape, 10, s) for s in range(steps)]
    return [runtime.train_step(x, y).loss for x, y in batches], runtime


class TestBitIdentity:
    @pytest.mark.parametrize("segments", [1, 2, 4])
    def test_deep_network(self, segments):
        def factory():
            return make_deep_cnn(depth=8, batch=4, size=16)
        ref, _ = losses(factory, seed=0)
        got, runtime = losses(factory, seed=0, recompute_segments=segments)
        assert got == ref
        assert runtime.recompute_count > 0

    def test_fork_join_network(self):
        ref, _ = losses(make_fork_join_cnn, seed=0)
        got, _ = losses(make_fork_join_cnn, seed=0, recompute_segments=2)
        assert got == ref

    def test_dropout_masks_replayed_identically(self):
        def factory():
            return (NetworkBuilder("drop", (4, 3, 12, 12))
                    .conv(8, kernel=3, pad=1).relu()
                    .conv(8, kernel=3, pad=1).relu()
                    .conv(8, kernel=3, pad=1).relu().pool()
                    .fc(16).relu().dropout(0.5)
                    .fc(10).softmax().build())
        ref, _ = losses(factory, seed=4)
        got, _ = losses(factory, seed=4, recompute_segments=2)
        assert got == ref

    def test_parameters_identical(self):
        def factory():
            return make_deep_cnn(depth=6, batch=2, size=8)
        _, a = losses(factory, seed=0)
        _, b = losses(factory, seed=0, recompute_segments=3)
        assert a.parameter_fingerprint() == b.parameter_fingerprint()


class TestMemoryEffect:
    def test_reduces_device_peak(self):
        def factory():
            return make_deep_cnn(depth=10, batch=4, size=16)
        _, ref = losses(factory, steps=1, seed=0)
        _, rec = losses(factory, steps=1, seed=0, recompute_segments=3)
        assert rec.device.peak_bytes < ref.device.peak_bytes

    def test_no_host_traffic(self):
        def factory():
            return make_deep_cnn(depth=6)
        _, runtime = losses(factory, seed=0, recompute_segments=2)
        assert runtime.host.offload_count == 0
        assert runtime.host.prefetch_count == 0

    def test_transient_buffers_cleared(self):
        def factory():
            return make_deep_cnn(depth=6)
        _, runtime = losses(factory, seed=0, recompute_segments=2)
        assert runtime.transient_keys() == set()


class TestHybridOffloadRecompute:
    """Offload + recompute combined (the SuperNeurons-style hybrid)."""

    def test_offloaded_storages_never_dropped(self, deep_cnn):
        # One segment: with more, the two droppable storages the
        # offloaded owners leave are both checkpoints and nothing drops.
        runtime = TrainingRuntime(deep_cnn, TransferPolicy.vdnn_conv(),
                                  recompute_segments=1)
        offloaded = {
            s.owner for s in LivenessAnalysis(runtime.network).all_storages()
            if s.needed_backward and runtime.policy.wants_offload(
                runtime.network[s.forward_release_at])
        }
        assert runtime._dropped
        assert runtime._dropped.isdisjoint(offloaded)

    def test_bit_identical_to_plain_training(self):
        def factory():
            return make_deep_cnn(depth=8, batch=4, size=16)
        ref, _ = losses(factory, seed=0)
        got, runtime = losses(factory, seed=0,
                              policy=TransferPolicy.vdnn_conv(),
                              recompute_segments=3)
        assert got == ref
        assert runtime.host.offload_count > 0

    def test_hybrid_beats_either_alone_on_peak(self):
        def factory():
            return make_deep_cnn(depth=10, batch=4, size=16)
        _, offload_only = losses(factory, steps=1, seed=0,
                                 policy=TransferPolicy.vdnn_conv())
        _, recompute_only = losses(factory, steps=1, seed=0,
                                   recompute_segments=3)
        _, hybrid = losses(factory, steps=1, seed=0,
                           policy=TransferPolicy.vdnn_conv(),
                           recompute_segments=3)
        assert hybrid.device.peak_bytes <= offload_only.device.peak_bytes
        assert hybrid.device.peak_bytes <= recompute_only.device.peak_bytes

    def test_none_policy_combination_allowed(self, deep_cnn):
        runtime = TrainingRuntime(deep_cnn, TransferPolicy.none(),
                                  recompute_segments=2)
        assert runtime._dropped


class TestSegmentCount:
    def test_negative_count_rejected(self, deep_cnn):
        with pytest.raises(ValueError, match="segment count"):
            TrainingRuntime(deep_cnn, recompute_segments=-1)

    def test_zero_means_sqrt_l(self):
        network = make_deep_cnn(depth=8)
        runtime = TrainingRuntime(network, recompute_segments=0)
        assert runtime._dropped == checkpoint_plan(
            network, LivenessAnalysis(network)).dropped
        assert runtime._dropped

    def test_none_drops_nothing(self, deep_cnn):
        assert not TrainingRuntime(deep_cnn)._dropped
