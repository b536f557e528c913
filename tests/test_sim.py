"""Tests for the two-stream simulation primitives and the power model."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AlgoConfig, TransferPolicy
from repro.core.executor import simulate_baseline, simulate_vdnn
from repro.core.inference import simulate_inference
from repro.core.joint import adopt_joint, simulate_joint_config
from repro.core.recompute import simulate_recompute
from repro.hw import PAPER_SYSTEM, TITAN_X
from repro.sim import (
    COMPUTE_STREAM,
    EmptyTimelineError,
    EventKind,
    MEMORY_STREAM,
    PowerModel,
    SimStream,
    Timeline,
    TimelineEvent,
    analyze_power,
    make_stream_pair,
)


class TestTimeline:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            TimelineEvent("s", EventKind.FORWARD, "x", 1.0, 0.5)

    def test_span_covers_all_events(self):
        timeline = Timeline()
        timeline.append("a", EventKind.FORWARD, "x", 0.0, 1.0)
        timeline.append("b", EventKind.BACKWARD, "y", 2.0, 5.0)
        assert timeline.span == 5.0
        assert timeline.end_time == 5.0

    def test_filters(self):
        timeline = Timeline()
        timeline.append("a", EventKind.FORWARD, "x", 0, 1, layer_index=3)
        timeline.append("b", EventKind.OFFLOAD, "y", 0, 1, nbytes=100)
        assert len(timeline.of_kind(EventKind.OFFLOAD)) == 1
        assert len(timeline.on_stream("a")) == 1
        assert len(timeline.for_layer(3)) == 1

    def test_busy_time_merges_overlaps(self):
        timeline = Timeline()
        timeline.append("a", EventKind.FORWARD, "x", 0.0, 2.0)
        timeline.append("a", EventKind.FORWARD, "y", 1.0, 3.0)
        assert timeline.busy_time("a") == pytest.approx(3.0)

    def test_busy_time_excludes_stalls(self):
        timeline = Timeline()
        timeline.append("a", EventKind.FORWARD, "x", 0.0, 1.0)
        timeline.append("a", EventKind.STALL, "wait", 1.0, 2.0)
        assert timeline.busy_time("a") == pytest.approx(1.0)

    def test_transferred_bytes_defaults_to_offload_and_prefetch(self):
        timeline = Timeline()
        timeline.append("m", EventKind.OFFLOAD, "x", 0, 1, nbytes=10)
        timeline.append("m", EventKind.PREFETCH, "x", 2, 3, nbytes=20)
        timeline.append("c", EventKind.FORWARD, "k", 0, 1, nbytes=999)
        assert timeline.transferred_bytes() == 30

    def test_render_ascii_contains_streams(self):
        timeline = Timeline()
        timeline.append(COMPUTE_STREAM, EventKind.FORWARD, "conv", 0.0, 1.0)
        art = timeline.render_ascii(width=60)
        assert COMPUTE_STREAM in art

    def test_render_empty(self):
        assert "empty" in Timeline().render_ascii()

    def test_empty_timeline_bounds_raise_clear_error(self):
        timeline = Timeline()
        with pytest.raises(EmptyTimelineError, match="no events"):
            timeline.t0
        with pytest.raises(EmptyTimelineError, match="no time bounds"):
            timeline.t1
        # EmptyTimelineError stays catchable as the ValueError it was.
        with pytest.raises(ValueError):
            timeline.t0
        assert timeline.span == 0.0
        assert timeline.end_time == 0.0

    def test_incremental_bounds_match_event_scan(self):
        timeline = Timeline()
        intervals = [(3.0, 4.0), (0.5, 2.0), (1.0, 6.0), (5.0, 5.5)]
        for start, end in intervals:
            timeline.append("a", EventKind.FORWARD, "x", start, end)
            events = timeline.events
            assert timeline.t0 == min(e.start for e in events)
            assert timeline.t1 == max(e.end for e in events)
            assert timeline.span == timeline.t1 - timeline.t0

    def test_out_of_order_append_extends_bounds(self):
        timeline = Timeline()
        timeline.append("a", EventKind.FORWARD, "x", 2.0, 3.0)
        timeline.append("a", EventKind.FORWARD, "y", 0.0, 1.0)
        assert timeline.t0 == 0.0
        assert timeline.t1 == 3.0

    def test_timelines_compare_by_events(self):
        first, second = Timeline(), Timeline()
        for timeline in (first, second):
            timeline.append("a", EventKind.FORWARD, "x", 0.0, 1.0)
        assert first == second
        second.append("a", EventKind.BACKWARD, "y", 1.0, 2.0)
        assert first != second


# One event: (stream, kind, label, start, duration, nbytes, layer).
EVENTS = st.lists(st.tuples(
    st.sampled_from((COMPUTE_STREAM, MEMORY_STREAM, "job:a")),
    st.sampled_from(list(EventKind)),
    st.sampled_from(("conv1", "fc", "x")),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.floats(0.0, 1e3, allow_nan=False),
    st.integers(0, 2 ** 62),
    st.integers(-1, 12),
), max_size=40)


def timeline_of(events):
    timeline = Timeline()
    for stream, kind, label, start, duration, nbytes, layer in events:
        timeline.append(stream, kind, label, start, start + duration,
                        nbytes, layer)
    return timeline


def timeline_readers(timeline):
    """Every reader's answer, as text, so ``-0.0`` and ``0`` show."""
    read = {
        "events": timeline.events,
        "busy_times": timeline.busy_times(COMPUTE_STREAM, MEMORY_STREAM,
                                          "job:a"),
        "boundaries": timeline.boundaries(),
        "layer_window": [timeline.layer_window(layers)
                         for layers in ({-1}, {0, 3}, set(range(13)))],
        "transferred_bytes": [timeline.transferred_bytes(),
                              timeline.transferred_bytes(EventKind.FORWARD)],
        "span": timeline.span,
        "render_ascii": timeline.render_ascii(width=60),
    }
    if len(timeline):
        read["bounds"] = (timeline.t0, timeline.t1)
    return repr(read)


class TestSealedTimeline:
    @settings(max_examples=60, deadline=None)
    @given(EVENTS)
    def test_readers_are_bit_identical_after_seal(self, events):
        plain = timeline_of(events)
        before = timeline_readers(plain)
        # A twin sealed before any read: no reader answers from a cache.
        sealed = timeline_of(events).seal()
        assert timeline_readers(sealed) == before
        assert timeline_readers(plain.seal()) == before

    @settings(max_examples=30, deadline=None)
    @given(EVENTS)
    def test_sealed_equals_its_unsealed_twin_across_pickle(self, events):
        plain, sealed = timeline_of(events), timeline_of(events).seal()
        assert sealed.sealed and not plain.sealed
        assert sealed == plain and plain == sealed
        restored = pickle.loads(pickle.dumps(sealed))
        assert restored.sealed
        assert restored == plain and plain == restored

    def test_seal_is_idempotent(self):
        timeline = timeline_of([(COMPUTE_STREAM, EventKind.FORWARD, "k",
                                 0.0, 1.0, 8, 0)]).seal()
        columns = (timeline._start, timeline._end, timeline._nbytes,
                   timeline._layer)
        assert timeline.seal() is timeline
        assert all(a is b for a, b in zip(columns, (
            timeline._start, timeline._end, timeline._nbytes,
            timeline._layer)))

    def test_append_to_a_sealed_timeline_raises(self):
        timeline = timeline_of([(COMPUTE_STREAM, EventKind.FORWARD, "k",
                                 0.0, 1.0, 8, 0)]).seal()
        with pytest.raises(TypeError, match="sealed"):
            timeline.append(COMPUTE_STREAM, EventKind.FORWARD, "late",
                            1.0, 2.0)
        assert len(timeline) == 1 and timeline.t1 == 1.0

    def test_a_differing_event_still_breaks_equality(self):
        events = [(COMPUTE_STREAM, EventKind.FORWARD, "k", 0.0, 1.0, 8, 0)]
        other = [(COMPUTE_STREAM, EventKind.FORWARD, "k", 0.0, 1.0, 9, 0)]
        assert timeline_of(events).seal() != timeline_of(other)
        assert timeline_of(events) != timeline_of(other).seal()


class TestResultsComeBackSealed:
    def test_every_simulator_seals_its_result(self, linear_cnn):
        memory = AlgoConfig.memory_optimal(linear_cnn)
        config, algos, _passes = adopt_joint(linear_cnn, PAPER_SYSTEM)
        results = [
            simulate_baseline(linear_cnn, PAPER_SYSTEM, memory),
            simulate_vdnn(linear_cnn, PAPER_SYSTEM, TransferPolicy.vdnn_all(),
                          memory),
            simulate_joint_config(linear_cnn, PAPER_SYSTEM, config, algos),
            simulate_recompute(linear_cnn, PAPER_SYSTEM, memory),
            simulate_inference(linear_cnn, PAPER_SYSTEM, memory),
        ]
        for result in results:
            assert result.timeline.sealed, result.label
            assert result.usage.sealed, result.label

    def test_a_result_pickled_with_list_columns_unpickles_sealed(
            self, linear_cnn):
        result = simulate_baseline(linear_cnn, PAPER_SYSTEM,
                                   AlgoConfig.memory_optimal(linear_cnn))
        # The pickle an older cache file holds: the logs' columns as lists.
        result.timeline = timeline_of(
            (e.stream, e.kind, e.label, e.start, e.end - e.start, e.nbytes,
             e.layer_index) for e in result.timeline.events)
        assert not result.timeline.sealed
        restored = pickle.loads(pickle.dumps(result))
        assert restored.timeline.sealed and restored.usage.sealed
        assert restored == result


class TestSimStream:
    def test_in_order_execution(self):
        _, _, timeline = make_stream_pair()
        stream = SimStream("s", timeline)
        _first_start, first_end = stream.push(EventKind.FORWARD, "a", 1.0)
        second_start, _second_end = stream.push(EventKind.FORWARD, "b", 2.0)
        assert second_start == first_end

    def test_earliest_start_respected(self):
        _, _, timeline = make_stream_pair()
        stream = SimStream("s", timeline)
        start, end = stream.push(EventKind.FORWARD, "a", 1.0,
                                 earliest_start=5.0)
        assert (start, end) == (5.0, 6.0)
        assert timeline.events[-1].start == 5.0

    def test_negative_duration_rejected(self):
        _, _, timeline = make_stream_pair()
        with pytest.raises(ValueError):
            SimStream("s", timeline).push(EventKind.FORWARD, "a", -1.0)

    def test_wait_for_introduces_stall(self):
        compute, memory, _ = make_stream_pair()
        compute.push(EventKind.FORWARD, "fwd", 1.0)
        memory.push(EventKind.OFFLOAD, "off", 3.0)
        stall = compute.wait_for(memory)
        assert stall == pytest.approx(2.0)
        assert compute.ready_time == pytest.approx(3.0)

    def test_wait_for_free_when_other_done(self):
        compute, memory, _ = make_stream_pair()
        compute.push(EventKind.FORWARD, "fwd", 3.0)
        memory.push(EventKind.OFFLOAD, "off", 1.0)
        assert compute.wait_for(memory) == 0.0

    def test_wait_until(self):
        compute, _, _ = make_stream_pair()
        assert compute.wait_until(4.0) == pytest.approx(4.0)
        assert compute.wait_until(2.0) == 0.0

    def test_figure9_overlap_pattern(self):
        """OFF(1) overlaps FWD(1); FWD(2) stalls until OFF(1) completes."""
        compute, memory, _ = make_stream_pair()
        fwd1_start, _ = compute.push(EventKind.FORWARD, "1", 2.0)
        off1_start, off1_end = memory.push(EventKind.OFFLOAD, "1", 3.0,
                                           earliest_start=fwd1_start)
        compute.wait_for(memory)
        fwd2_start, _ = compute.push(EventKind.FORWARD, "2", 2.0)
        assert off1_start == fwd1_start       # overlapped
        assert fwd2_start == off1_end         # stalled behind the offload


class TestPowerModel:
    def test_idle_timeline(self):
        report = analyze_power(Timeline(), TITAN_X)
        assert report.average_watts == PowerModel().idle_watts

    def test_compute_raises_power(self):
        timeline = Timeline()
        timeline.append(COMPUTE_STREAM, EventKind.FORWARD, "k", 0.0, 1.0,
                        nbytes=0)
        report = analyze_power(timeline, TITAN_X)
        model = PowerModel()
        assert report.average_watts == pytest.approx(
            model.idle_watts + model.compute_watts
        )

    def test_transfers_add_power(self):
        base = Timeline()
        base.append(COMPUTE_STREAM, EventKind.FORWARD, "k", 0.0, 1.0)
        with_dma = Timeline()
        with_dma.append(COMPUTE_STREAM, EventKind.FORWARD, "k", 0.0, 1.0)
        with_dma.append(MEMORY_STREAM, EventKind.OFFLOAD, "o", 0.0, 1.0,
                        nbytes=12_800_000_000)
        p_base = analyze_power(base, TITAN_X)
        p_dma = analyze_power(with_dma, TITAN_X)
        assert p_dma.max_watts > p_base.max_watts

    def test_max_at_least_average(self):
        timeline = Timeline()
        timeline.append(COMPUTE_STREAM, EventKind.FORWARD, "k", 0.0, 1.0)
        timeline.append(COMPUTE_STREAM, EventKind.STALL, "s", 1.0, 2.0)
        report = analyze_power(timeline, TITAN_X)
        assert report.max_watts >= report.average_watts

    def test_energy_consistent_with_average(self):
        timeline = Timeline()
        timeline.append(COMPUTE_STREAM, EventKind.FORWARD, "k", 0.0, 2.0)
        report = analyze_power(timeline, TITAN_X)
        assert report.energy_joules == pytest.approx(
            report.average_watts * report.duration
        )

    def test_dram_utilization_clamped(self):
        model = PowerModel()
        assert model.instantaneous(True, 5.0, False) == \
            model.instantaneous(True, 1.0, False)
