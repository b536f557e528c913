"""Tests for UsageTracker and the pinned host allocator."""

import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.alloc import (
    PinnedHostAllocator,
    PinnedMemoryError,
    UsageTracker,
)


class TestUsageTracker:
    def test_empty_tracker(self):
        tracker = UsageTracker()
        assert tracker.max_bytes == 0
        assert tracker.average_bytes == 0.0

    def test_max_is_peak_sample(self):
        tracker = UsageTracker()
        for t, v in [(0, 10), (1, 50), (2, 20)]:
            tracker.record(t, v)
        assert tracker.max_bytes == 50

    def test_time_weighted_average(self):
        tracker = UsageTracker()
        tracker.record(0.0, 100)   # 100 bytes for 1s
        tracker.record(1.0, 0)     # 0 bytes for 3s
        tracker.record(4.0, 0)
        assert tracker.average_bytes == pytest.approx(25.0)

    def test_step_function_semantics(self):
        # The value recorded at t holds until the next sample.
        tracker = UsageTracker()
        tracker.record(0.0, 10)
        tracker.record(9.0, 1000)
        tracker.record(10.0, 1000)
        assert tracker.average_bytes == pytest.approx((10 * 9 + 1000) / 10)

    def test_zero_duration_falls_back_to_mean(self):
        tracker = UsageTracker()
        tracker.record(0.0, 10)
        tracker.record(0.0, 30)
        assert tracker.average_bytes == pytest.approx(20.0)

    def test_time_must_not_go_backwards(self):
        tracker = UsageTracker()
        tracker.record(1.0, 10)
        with pytest.raises(ValueError):
            tracker.record(0.5, 10)

    def test_negative_bytes_rejected(self):
        with pytest.raises(ValueError):
            UsageTracker().record(0.0, -1)

    def test_curve_roundtrip(self):
        tracker = UsageTracker()
        tracker.record(0.0, 1)
        tracker.record(1.0, 2)
        assert tracker.curve() == [(0.0, 1), (1.0, 2)]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=10 ** 9),
                    min_size=1, max_size=50))
    def test_property_average_bounded_by_min_max(self, values):
        tracker = UsageTracker()
        for t, v in enumerate(values):
            tracker.record(float(t), v)
        assert min(values) <= tracker.average_bytes <= max(values)
        assert tracker.max_bytes == max(values)


# A usage curve: non-decreasing times (running sums of gaps), live bytes.
CURVES = st.lists(st.tuples(st.floats(0.0, 1e3, allow_nan=False),
                            st.integers(0, 2 ** 62)), max_size=40)


def tracker_of(curve, start=0.0):
    tracker = UsageTracker()
    clock = start
    for gap, live in curve:
        clock += gap
        tracker.record(clock, live)
    return tracker


def usage_readers(tracker):
    """Every reader's answer, as text, so a float/int change shows."""
    return repr((tracker.samples, tracker.curve(), tracker.max_bytes,
                 tracker.average_bytes))


class TestSealedUsageTracker:
    @settings(max_examples=60, deadline=None)
    @given(CURVES, st.floats(-1e6, 1e6, allow_nan=False))
    def test_readers_are_bit_identical_after_seal(self, curve, start):
        plain = tracker_of(curve, start)
        before = usage_readers(plain)
        assert usage_readers(tracker_of(curve, start).seal()) == before
        assert usage_readers(plain.seal()) == before

    @settings(max_examples=30, deadline=None)
    @given(CURVES)
    def test_sealed_equals_its_unsealed_twin_across_pickle(self, curve):
        plain, sealed = tracker_of(curve), tracker_of(curve).seal()
        assert sealed.sealed and not plain.sealed
        assert sealed == plain and plain == sealed
        restored = pickle.loads(pickle.dumps(sealed))
        assert restored.sealed
        assert restored == plain and plain == restored

    def test_seal_is_idempotent(self):
        tracker = tracker_of([(0.0, 1), (1.0, 2)]).seal()
        columns = (tracker._times, tracker._bytes)
        assert tracker.seal() is tracker
        assert columns[0] is tracker._times and columns[1] is tracker._bytes

    def test_record_on_a_sealed_curve_raises(self):
        tracker = tracker_of([(0.0, 1)]).seal()
        with pytest.raises(TypeError, match="sealed"):
            tracker.record(1.0, 2)
        assert tracker.curve() == [(0.0, 1)]


class TestPinnedHostAllocator:
    def test_alloc_and_free(self):
        pinned = PinnedHostAllocator(1000)
        buf = pinned.alloc(600)
        assert pinned.live_bytes == 600
        pinned.free(buf)
        assert pinned.live_bytes == 0

    def test_budget_enforced(self):
        pinned = PinnedHostAllocator(1000)
        pinned.alloc(600)
        with pytest.raises(PinnedMemoryError):
            pinned.alloc(600)

    def test_peak_and_traffic_counters(self):
        pinned = PinnedHostAllocator(10_000)
        a = pinned.alloc(1000)
        pinned.free(a)
        pinned.alloc(500)
        assert pinned.peak_bytes == 1000
        assert pinned.total_allocated == 1500

    def test_double_free_rejected(self):
        pinned = PinnedHostAllocator(1000)
        buf = pinned.alloc(10)
        pinned.free(buf)
        with pytest.raises(ValueError):
            pinned.free(buf)

    def test_free_all(self):
        pinned = PinnedHostAllocator(1000)
        pinned.alloc(10)
        pinned.alloc(20)
        pinned.free_all()
        assert pinned.live_bytes == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PinnedHostAllocator(0)
        with pytest.raises(ValueError):
            PinnedHostAllocator(10).alloc(-1)
