"""Edge-coverage tests across smaller surfaces of the library."""

import pytest

from repro.core import (
    AlgoConfig,
    CapacityReport,
    TransferPolicy,
    evaluate,
    simulate_page_migration,
)
from repro.graph import NetworkBuilder, gb
from repro.hw import PAPER_SYSTEM, TransferMode
from repro.sim import EventKind, Timeline, timeline_to_trace_events
from repro.zoo import build

from conftest import make_fork_join_cnn, make_linear_cnn


class TestNetworkSummary:
    def test_marks_in_place_and_refcounts(self, fork_join_cnn):
        text = fork_join_cnn.summary()
        assert "in-place" in text
        assert "refcnt=2" in text
        assert "feat" in text and "clsf" in text

    def test_header_has_batch(self, linear_cnn):
        assert "batch 4" in linear_cnn.summary()


class TestTimelineRendering:
    def test_custom_stream_order(self):
        timeline = Timeline()
        timeline.append("b", EventKind.FORWARD, "x", 0.0, 1.0)
        timeline.append("a", EventKind.BACKWARD, "y", 1.0, 2.0)
        art = timeline.render_ascii(width=50, streams=["b", "a"])
        lines = art.splitlines()
        assert lines[0].strip().startswith("b")

    def test_zero_span_timeline(self):
        timeline = Timeline()
        timeline.append("a", EventKind.FORWARD, "x", 1.0, 1.0)
        assert "a" in timeline.render_ascii(width=30)

    def test_trace_export_without_usage(self, linear_cnn):
        result = evaluate(linear_cnn, policy="all", algo="m")
        events = timeline_to_trace_events(result.timeline)
        assert not [e for e in events if e["ph"] == "C"]


class TestFP16EndToEnd:
    def test_fp16_network_simulates_under_every_policy(self):
        net = build("alexnet", 16).with_dtype_bytes(2)
        for policy in ("all", "conv", "base", "dyn"):
            result = evaluate(net, policy=policy)
            assert result.trainable, policy

    def test_fp16_halves_offload_traffic(self):
        fp32 = evaluate(build("alexnet", 32), policy="all", algo="m")
        fp16 = evaluate(build("alexnet", 32).with_dtype_bytes(2),
                        policy="all", algo="m")
        assert fp16.offload_bytes * 2 == fp32.offload_bytes


class TestLabels:
    def test_iteration_result_label(self, linear_cnn):
        result = evaluate(linear_cnn, policy="all", algo="m")
        assert result.label == "vDNN_all(m)"

    def test_algo_config_label_after_downgrade(self, deep_cnn):
        algos = AlgoConfig.performance_optimal(deep_cnn)
        target = max(algos.profiles,
                     key=lambda i: algos.profiles[i].workspace_bytes)
        algos.downgrade(deep_cnn, target)
        assert algos.label == "dyn"

    def test_policy_describe_stable(self):
        assert TransferPolicy.none().describe() == "vDNN_none"
        assert TransferPolicy.vdnn_conv().describe() == "vDNN_conv"


class TestPagingModes:
    def test_dma_mode_cheaper_than_page_migration(self):
        net = build("vgg16", 256)
        algos = AlgoConfig.performance_optimal(net)
        paged = simulate_page_migration(net, PAPER_SYSTEM, algos)
        dma = simulate_page_migration(net, PAPER_SYSTEM, algos,
                                      mode=TransferMode.DMA)
        assert dma.paging_seconds < paged.paging_seconds
        assert dma.total_seconds < paged.total_seconds

    def test_report_totals(self, linear_cnn):
        algos = AlgoConfig.memory_optimal(linear_cnn)
        report = simulate_page_migration(linear_cnn, PAPER_SYSTEM, algos)
        assert report.total_seconds == pytest.approx(
            report.compute_seconds + report.paging_seconds
        )


class TestCapacityReport:
    def test_headroom_ratio(self):
        report = CapacityReport("n", "g", {"base": 64, "vdnn": 256})
        assert report.headroom("vdnn", "base") == 4.0

    def test_headroom_infinite_when_baseline_zero(self):
        report = CapacityReport("n", "g", {"base": 0, "vdnn": 8})
        assert report.headroom("vdnn", "base") == float("inf")


class TestMixedPrecisionBuilders:
    def test_builder_dtype_reaches_gradients(self):
        net = (NetworkBuilder("half", (2, 3, 8, 8), dtype_bytes=2)
               .conv(4, kernel=3, pad=1).relu()
               .fc(4).softmax().build())
        from repro.core import LivenessAnalysis
        liveness = LivenessAnalysis(net)
        # Gradient twins mirror storage sizes, which are halved.
        assert liveness.max_gradient_bytes() == \
            max(s.nbytes for s in liveness.all_storages() if s.needs_gradient)
        assert net[1].weight_spec.dtype_bytes == 2


class TestDynFallbackPath:
    def test_falls_back_to_all_m_when_greedy_cannot_fit(self):
        """GPU sized just above the vDNN_all(m) peak: every perf-seeking
        probe fails and the planner must land on the pass-1 config."""
        from repro.core import plan_dynamic, simulate_vdnn
        net = build("vgg16", 32)
        floor = simulate_vdnn(
            net, PAPER_SYSTEM, TransferPolicy.vdnn_all(),
            AlgoConfig.memory_optimal(net),
        ).max_usage_bytes
        system = PAPER_SYSTEM.with_gpu_memory(int(floor * 1.01))
        plan = plan_dynamic(net, system)
        assert plan.result.trainable
        assert plan.result.max_usage_bytes <= system.gpu.memory_bytes
