"""Tests for the extension modules: paging, capacity, recompute,
data-parallel, interconnects, and fp16 precision."""

import pytest

from repro.cluster.dataparallel import simulate_cluster_iteration
from repro.core import (
    AlgoConfig,
    CapacityReport,
    TransferPolicy,
    capacity_report,
    evaluate,
    max_trainable_batch,
    paging_vs_vdnn,
    simulate_baseline,
    simulate_page_migration,
    simulate_recompute,
    simulate_vdnn,
)
from repro.core.recompute import checkpoint_plan
from repro.graph import gb
from repro.hw import (
    NVLINK_1,
    NVLINK_2,
    PAPER_SYSTEM,
    PCIE_GEN3,
    PCIE_GEN4,
    TransferMode,
    interconnect_sweep,
    pcie_switch_tree,
    system_with_link,
)
from repro.sched.admission import evaluate_ladder
from repro.zoo import build

from conftest import make_deep_cnn, make_fork_join_cnn, make_linear_cnn


class TestPageMigration:
    def test_fitting_network_pays_nothing(self, linear_cnn):
        algos = AlgoConfig.memory_optimal(linear_cnn)
        report = simulate_page_migration(linear_cnn, PAPER_SYSTEM, algos)
        assert report.fits
        assert report.slowdown == 1.0

    def test_oversubscribed_network_pays_heavily(self):
        net = build("vgg16", 256)
        algos = AlgoConfig.performance_optimal(net)
        report = simulate_page_migration(net, PAPER_SYSTEM, algos)
        assert not report.fits
        assert report.slowdown > 10  # paper: paging is a non-starter

    def test_dma_paging_much_cheaper_but_still_slower_than_vdnn(self):
        comparison = paging_vs_vdnn(build("vgg16", 256), PAPER_SYSTEM)
        assert comparison["paging_slowdown"] > 10
        assert 1.0 <= comparison["paging_dma_slowdown"] < \
            comparison["paging_slowdown"]
        assert comparison["vdnn_dyn_slowdown"] < \
            comparison["paging_dma_slowdown"]

    def test_oversubscription_accounting(self):
        net = build("vgg16", 256)
        algos = AlgoConfig.performance_optimal(net)
        report = simulate_page_migration(net, PAPER_SYSTEM, algos)
        assert report.oversubscribed_bytes == \
            report.footprint_bytes - PAPER_SYSTEM.gpu.memory_bytes


class TestCapacityPlanner:
    def test_tiny_network_hits_upper_limit(self, linear_cnn):
        assert max_trainable_batch(
            linear_cnn, PAPER_SYSTEM, "base", "m", upper_limit=64
        ) == 64

    def test_zero_when_nothing_fits(self, linear_cnn):
        tiny = PAPER_SYSTEM.with_gpu_memory(1 << 12)
        assert max_trainable_batch(linear_cnn, tiny, "base", "m") == 0

    def test_result_is_exact_boundary(self):
        net = build("vgg16", 64)
        best = max_trainable_batch(net, PAPER_SYSTEM, "base", "p",
                                   upper_limit=512)
        assert evaluate(net.with_batch_size(best),
                        policy="base", algo="p").trainable
        assert not evaluate(net.with_batch_size(best + 1),
                            policy="base", algo="p").trainable

    def test_vgg16_paper_story(self):
        """Baseline caps VGG-16 near batch ~64-100; vDNN reaches 256."""
        report = capacity_report(build("vgg16", 64), PAPER_SYSTEM,
                                 upper_limit=512)
        assert report.max_batch["base(p)"] < 128
        assert report.max_batch["all(m)"] >= 256
        assert report.max_batch["dyn"] >= 256
        assert report.headroom("all(m)", "base(p)") > 2.0

    def test_policy_ordering(self):
        report = capacity_report(build("vgg16", 64), PAPER_SYSTEM,
                                 upper_limit=512)
        assert report.max_batch["base(p)"] <= report.max_batch["base(m)"]
        assert report.max_batch["base(m)"] <= report.max_batch["all(m)"]


class TestRecompute:
    def test_reduces_memory_below_baseline(self):
        net = build("vgg16", 64)
        algos = AlgoConfig.memory_optimal(net)
        base = simulate_baseline(net, PAPER_SYSTEM, algos)
        rec = simulate_recompute(net, PAPER_SYSTEM, algos)
        assert rec.max_usage_bytes < base.max_usage_bytes

    def test_pays_extra_forward_time(self):
        net = build("vgg16", 64)
        algos = AlgoConfig.memory_optimal(net)
        base = simulate_baseline(net, PAPER_SYSTEM, algos)
        rec = simulate_recompute(net, PAPER_SYSTEM, algos)
        assert rec.total_time > base.total_time
        # Bounded by one full extra forward pass.
        forward_time = sum(
            e.duration for e in base.timeline.events
            if e.kind.value == "FWD"
        )
        assert rec.compute_stall_seconds <= forward_time * 1.01

    def test_no_pcie_traffic(self):
        net = make_deep_cnn(depth=6)
        rec = simulate_recompute(net, PAPER_SYSTEM,
                                 AlgoConfig.memory_optimal(net))
        assert rec.offload_bytes == 0
        assert rec.pinned_peak_bytes == 0

    def test_more_segments_less_memory(self):
        net = build("vgg16", 64)
        algos = AlgoConfig.memory_optimal(net)
        coarse = simulate_recompute(net, PAPER_SYSTEM, algos, segment_count=2)
        fine = simulate_recompute(net, PAPER_SYSTEM, algos, segment_count=8)
        assert fine.max_usage_bytes <= coarse.max_usage_bytes

    def test_negative_segment_count_rejected(self, deep_cnn):
        with pytest.raises(ValueError, match="segment count"):
            simulate_recompute(deep_cnn, PAPER_SYSTEM,
                               AlgoConfig.memory_optimal(deep_cnn),
                               segment_count=-1)

    def test_checkpoint_plan_rejects_negative_segment_count(self, deep_cnn):
        with pytest.raises(ValueError, match="segment count"):
            checkpoint_plan(deep_cnn, -1)

    def test_checkpoint_plan_excludes_owners_before_striding(self, deep_cnn):
        order = checkpoint_plan(deep_cnn).droppable_order
        kept = frozenset(order[:3])
        plan = checkpoint_plan(deep_cnn, 1, exclude=kept)
        assert plan.droppable_order == order[3:]
        assert plan.checkpoints == {order[3]}
        assert plan.dropped == set(order[4:])

    def test_fork_join_topology_supported(self, fork_join_cnn):
        rec = simulate_recompute(fork_join_cnn, PAPER_SYSTEM,
                                 AlgoConfig.memory_optimal(fork_join_cnn))
        assert rec.trainable

    def test_pool_fully_drained(self, deep_cnn):
        rec = simulate_recompute(deep_cnn, PAPER_SYSTEM,
                                 AlgoConfig.memory_optimal(deep_cnn))
        final_live = rec.usage.curve()[-1][1]
        persistent = sum(2 * n.weight_bytes for n in deep_cnn
                         if n.is_feature_extraction)
        assert final_live >= persistent
        assert final_live < persistent + 4096 * len(deep_cnn.nodes)


def _data_parallel(name, global_batch, num_gpus):
    """A ``base(p)`` gang on a PCIe switch, the global batch split
    evenly across its replicas."""
    return simulate_cluster_iteration(
        name, global_batch // num_gpus, num_gpus,
        pcie_switch_tree(num_gpus), rung="base(p)")


def _replica_fits(name, batch):
    base = evaluate_ladder(build(name, batch), PAPER_SYSTEM)[0]
    return base.footprint_bytes <= PAPER_SYSTEM.gpu.memory_bytes


def _min_gpus(name, global_batch):
    """Fewest GPUs (a divisor of the global batch) whose replica fits."""
    return next(n for n in range(1, global_batch + 1)
                if global_batch % n == 0
                and _replica_fits(name, global_batch // n))


class TestDataParallel:
    def test_paper_4x_vgg_story(self):
        one = _data_parallel("vgg16", 256, 1)
        four = _data_parallel("vgg16", 256, 4)
        assert not _replica_fits("vgg16", 256)
        assert _replica_fits("vgg16", 64)
        assert four.batch_size == 64
        assert four.iter_seconds < one.iter_seconds

    def test_allreduce_grows_with_gpu_count(self):
        two = _data_parallel("vgg16", 256, 2)
        four = _data_parallel("vgg16", 256, 4)
        assert 0 < two.allreduce_bytes < four.allreduce_bytes

    def test_min_gpus(self):
        assert _min_gpus("vgg16", 256) == 4
        assert _min_gpus("alexnet", 128) == 1


class TestInterconnects:
    def test_sweep_is_ordered_by_bandwidth(self):
        sweep = interconnect_sweep()
        rates = [cfg.pcie.dma_bandwidth for _, cfg in sweep]
        assert rates == sorted(rates)
        assert len(sweep) == 4

    def test_faster_link_cuts_vdnn_overhead(self):
        net = build("vgg16", 64)
        algos = AlgoConfig.memory_optimal(net)
        stalls = []
        for _, system in interconnect_sweep():
            result = simulate_vdnn(net, system, TransferPolicy.vdnn_all(),
                                   algos)
            stalls.append(result.compute_stall_seconds)
        assert stalls[0] > stalls[-1]
        assert all(a >= b for a, b in zip(stalls, stalls[1:]))

    def test_constants(self):
        assert PCIE_GEN4.dma_bandwidth == 2 * PCIE_GEN3.dma_bandwidth
        assert NVLINK_2.max_bandwidth > NVLINK_1.max_bandwidth
        assert system_with_link(NVLINK_1).pcie is NVLINK_1


class TestPrecision:
    def test_fp16_halves_every_allocation(self):
        net = build("vgg16", 64)
        half = net.with_dtype_bytes(2)
        for a, b in zip(net.nodes, half.nodes):
            assert b.output_spec.nbytes * 2 == a.output_spec.nbytes
            assert b.weight_bytes * 2 == a.weight_bytes

    def test_fp16_vgg256_still_needs_vdnn(self):
        """Reduced precision alone does not fit VGG-16 (256) in 12 GB —
        offloading and precision are complementary, as the related-work
        section argues."""
        half = build("vgg16", 256).with_dtype_bytes(2)
        base = evaluate(half, policy="base", algo="p")
        assert not base.trainable
        assert gb(base.max_usage_bytes) > 12
        vdnn = evaluate(half, policy="all", algo="m")
        assert vdnn.trainable

    def test_dtype_flows_through_builder(self):
        from repro.graph import NetworkBuilder
        net = (NetworkBuilder("fp16", (2, 3, 8, 8), dtype_bytes=2)
               .conv(4, kernel=3, pad=1).relu()
               .fc(10).softmax().build())
        for node in net:
            assert node.output_spec.dtype_bytes == 2

    def test_batch_rescale_preserves_dtype(self):
        net = build("vgg16", 64).with_dtype_bytes(2)
        assert net.with_batch_size(8)[0].output_spec.dtype_bytes == 2
