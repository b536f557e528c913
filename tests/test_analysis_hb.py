"""Happens-before graph and race rules over hand-built traces.

Each known-bad fixture is the minimal schedule exhibiting one defect,
and each asserts its rule fires *exactly once* — the no-false-negative
half of the sanitizer's contract (the clean executor sweep in
test_analysis_verify.py is the no-false-positive half).
"""

import pytest

from repro.analysis.hb import HBGraph, check_races
from repro.analysis.trace import ScheduleTrace
from repro.sim.stream import COMPUTE_STREAM, MEMORY_STREAM


def make_offload_trace(with_sync=True):
    """alloc Y0 -> kernel writes it -> offload -> [sync] -> free."""
    t = ScheduleTrace()
    t.alloc("Y0", 1024, offset=0, size=1024)
    t.kernel("conv1", COMPUTE_STREAM, reads=(), writes=("Y0",), layer=1,
             phase="fwd")
    t.offload("Y0", MEMORY_STREAM, nbytes=1024, layer=1, owner=0,
              target_layer=1, wait_stream=COMPUTE_STREAM, wait_pos=0)
    if with_sync:
        t.sync(MEMORY_STREAM, label="offload-sync", layer=1)
    t.free("Y0", COMPUTE_STREAM, offset=0, size=1024, layer=1, phase="fwd")
    return t


def make_prefetch_trace(with_sync=True):
    """alloc Y0 -> prefetch writes it -> [sync] -> kernel reads it."""
    t = ScheduleTrace()
    t.alloc("Y0", 1024, offset=0, size=1024)
    t.prefetch("Y0", MEMORY_STREAM, nbytes=1024, layer=3, owner=0,
               target_layer=1)
    if with_sync:
        t.sync(MEMORY_STREAM, label="prefetch-sync", layer=3)
    t.kernel("conv1_bwd", COMPUTE_STREAM, reads=("Y0",), writes=(),
             layer=1, phase="bwd")
    t.free("Y0", COMPUTE_STREAM, offset=0, size=1024, layer=1, phase="bwd")
    return t


class TestHBGraph:
    def test_same_stream_is_program_ordered(self):
        t = ScheduleTrace()
        a = t.kernel("k1", COMPUTE_STREAM)
        b = t.kernel("k2", COMPUTE_STREAM)
        hb = HBGraph(t)
        assert hb.happens_before(a, b)
        assert not hb.happens_before(b, a)

    def test_cross_stream_unordered_without_sync(self):
        t = ScheduleTrace()
        a = t.kernel("k", COMPUTE_STREAM)
        b = t.offload("Y0", MEMORY_STREAM)
        hb = HBGraph(t)
        assert not hb.ordered(a, b)

    def test_sync_orders_waited_stream_before_later_ops(self):
        t = ScheduleTrace()
        dma = t.offload("Y0", MEMORY_STREAM)
        t.sync(MEMORY_STREAM)
        later = t.kernel("k", COMPUTE_STREAM)
        assert HBGraph(t).happens_before(dma, later)

    def test_sync_does_not_order_ops_issued_after_it(self):
        t = ScheduleTrace()
        t.sync(MEMORY_STREAM)          # waits on nothing issued yet
        dma = t.offload("Y0", MEMORY_STREAM)
        later = t.kernel("k", COMPUTE_STREAM)
        assert not HBGraph(t).happens_before(dma, later)

    def test_event_wait_edge_orders_producer_before_transfer(self):
        t = ScheduleTrace()
        producer = t.kernel("conv", COMPUTE_STREAM, writes=("Y0",))
        dma = t.offload("Y0", MEMORY_STREAM, wait_stream=COMPUTE_STREAM,
                        wait_pos=producer.pos)
        assert HBGraph(t).happens_before(producer, dma)

    def test_alloc_is_host_synchronous(self):
        t = ScheduleTrace()
        alloc = t.alloc("Y0", 64)
        on_memory = t.offload("Y0", MEMORY_STREAM)
        assert HBGraph(t).happens_before(alloc, on_memory)

    def test_wait_on_a_position_issued_later_is_rejected(self):
        t = ScheduleTrace()
        t.kernel("k0", COMPUTE_STREAM)
        t.sync(COMPUTE_STREAM, wait_pos=1)   # names k1, issued after it
        t.kernel("k1", COMPUTE_STREAM)
        with pytest.raises(ValueError, match=r"op#1 .* stream_compute:1"):
            HBGraph(t)

    def test_wait_on_a_position_never_issued_is_rejected(self):
        t = ScheduleTrace()
        t.kernel("k0", COMPUTE_STREAM)
        t.offload("Y0", MEMORY_STREAM, wait_stream=COMPUTE_STREAM,
                  wait_pos=3)
        with pytest.raises(ValueError, match="stream_compute:3"):
            HBGraph(t)

    def test_transitivity_through_two_syncs(self):
        t = ScheduleTrace()
        dma = t.offload("Y0", MEMORY_STREAM)
        t.sync(MEMORY_STREAM)
        mid = t.kernel("k1", COMPUTE_STREAM)
        t.sync(COMPUTE_STREAM)
        tail = t.prefetch("Y1", MEMORY_STREAM)
        hb = HBGraph(t)
        assert hb.happens_before(dma, mid)
        assert hb.happens_before(mid, tail)
        assert hb.happens_before(dma, tail)


class TestRaceRules:
    def test_clean_offload_schedule_has_no_findings(self):
        assert check_races(make_offload_trace(with_sync=True)) == []

    def test_release_before_offload_complete_fires_hb002_once(self):
        findings = check_races(make_offload_trace(with_sync=False))
        assert [d.rule for d in findings] == ["HB002"]

    def test_clean_prefetch_schedule_has_no_findings(self):
        assert check_races(make_prefetch_trace(with_sync=True)) == []

    def test_use_before_prefetch_complete_fires_hb003_once(self):
        findings = check_races(make_prefetch_trace(with_sync=False))
        rules = [d.rule for d in findings]
        assert rules.count("HB003") == 1

    def test_unordered_cross_stream_write_pair_fires_hb001_once(self):
        t = ScheduleTrace()
        t.alloc("Y0", 64)
        t.kernel("k", COMPUTE_STREAM, writes=("Y0",))
        t.prefetch("Y0", MEMORY_STREAM)
        findings = check_races(t)
        assert [d.rule for d in findings] == ["HB001"]

    def test_read_read_pair_is_not_a_race(self):
        t = ScheduleTrace()
        t.alloc("Y0", 64)
        t.kernel("k", COMPUTE_STREAM, reads=("Y0",))
        t.offload("Y0", MEMORY_STREAM, wait_stream=COMPUTE_STREAM,
                  wait_pos=-1)
        # Offload *reads* Y0 concurrently with the kernel read: allowed.
        assert check_races(t) == []

    def test_dropping_the_sync_via_without_flags_the_mutant(self):
        clean = make_offload_trace(with_sync=True)
        assert check_races(clean) == []
        sync_seq = next(op.seq for op in clean.ops
                        if op.kind.name == "SYNC")
        mutant = clean.without(sync_seq)
        assert any(d.rule == "HB002" for d in check_races(mutant))

    def test_without_keeps_each_wait_on_the_op_it_named(self):
        t = ScheduleTrace()
        t.kernel("k0", COMPUTE_STREAM)
        t.kernel("k1", COMPUTE_STREAM)
        t.kernel("k2", COMPUTE_STREAM)
        t.offload("Y0", MEMORY_STREAM, wait_stream=COMPUTE_STREAM,
                  wait_pos=2)                          # waits on k2
        t.sync(COMPUTE_STREAM, wait_pos=1)             # waits on k1
        mutant = t.without(0)                          # k1, k2 shift down
        offload, sync = mutant.ops[2], mutant.ops[3]
        assert (offload.wait_pos, sync.wait_pos) == (1, 0)
        by_pos = {op.pos: op.label for op in mutant.on_stream(COMPUTE_STREAM)}
        assert by_pos[offload.wait_pos] == "k2"
        assert by_pos[sync.wait_pos] == "k1"
        HBGraph(mutant)   # every wait names an op issued before it

    def test_without_moves_a_wait_on_a_dropped_op_to_its_predecessor(self):
        t = ScheduleTrace()
        t.kernel("k0", COMPUTE_STREAM)
        t.kernel("k1", COMPUTE_STREAM)
        t.sync(COMPUTE_STREAM, wait_pos=1)
        assert t.without(1).ops[-1].wait_pos == 0      # now waits on k0
        assert t.without(0, 1).ops[-1].wait_pos == -1  # nothing left

    def test_finding_carries_evidence_refs(self):
        findings = check_races(make_offload_trace(with_sync=False))
        assert findings and len(findings[0].refs) == 2
        assert "offload" in findings[0].refs[0]
