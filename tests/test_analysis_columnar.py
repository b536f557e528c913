"""The columnar trace passes against their op-at-a-time references.

``repro.analysis.hb`` and ``repro.analysis.safety`` read the schedule
trace's columns; ``analysis_reference`` keeps the passes they replaced,
which walk :class:`TraceOp` views with dict vector clocks and scan every
access pair.  Both must return equal diagnostics (rule, message, refs,
order) on executor traces, on every single-op mutant of alexnet:8 and on
generated fork/join traces, and on the small traces ``happens_before``
must agree for every op pair.
"""

import analysis_reference as reference
import pytest
from analysis_reference import ORACLE_NETWORKS, ORACLE_POLICIES, zoo_trace
from hypothesis import given, settings, strategies as st

from repro.analysis.hb import HBGraph, check_races
from repro.analysis.safety import check_memory_safety
from repro.analysis.trace import HOST_STREAM, ScheduleTrace
from repro.sim.stream import COMPUTE_STREAM, MEMORY_STREAM


def outcome(check, trace, **kw):
    """Diagnostics, or the ValueError a bad wait raises, as a value."""
    try:
        return check(trace, **kw)
    except ValueError as error:
        return f"ValueError: {error}"


def assert_passes_match(trace, network=None, liveness=None):
    """Equal race and safety findings; returns them."""
    races = outcome(check_races, trace, network=network)
    assert races == outcome(reference.check_races, trace, network=network)
    safety = outcome(check_memory_safety, trace, liveness=liveness)
    assert safety == outcome(reference.check_memory_safety, trace,
                             liveness=liveness)
    return races, safety


def assert_happens_before_matches(trace):
    graph, oracle = HBGraph(trace), reference.HBGraph(trace)
    ops = trace.ops
    for a in ops:
        for b in ops:
            assert graph.happens_before(a, b) == \
                oracle.happens_before(a, b), (a, b)
            assert graph.ordered(a, b) == oracle.ordered(a, b), (a, b)


class TestExecutorTraces:
    @pytest.mark.parametrize("policy", ORACLE_POLICIES)
    @pytest.mark.parametrize("name", ORACLE_NETWORKS)
    def test_findings_match_the_reference(self, name, policy):
        trace, network, liveness = zoo_trace(name, policy)
        assert assert_passes_match(trace, network, liveness) == ([], [])

    @pytest.mark.parametrize("policy", ORACLE_POLICIES)
    def test_alexnet_happens_before_matches_for_every_pair(self, policy):
        trace, _, _ = zoo_trace("alexnet", policy)
        assert_happens_before_matches(trace)

    @pytest.mark.parametrize("policy", ORACLE_POLICIES)
    def test_every_single_op_mutant_matches_the_reference(self, policy):
        trace, network, liveness = zoo_trace("alexnet", policy)
        rules = set()
        for seq in range(len(trace)):
            races, safety = assert_passes_match(
                trace.without(seq), network, liveness)
            rules.update(d.rule for d in races + safety)
        # Every race and safety rule but the HB004 warning fires on
        # some mutant, so the comparison is not between empty lists.
        assert rules == {"HB001", "HB002", "HB003", "MS101", "MS102",
                         "MS103", "MS104", "MS105"}


class TestStreamIndexedClocks:
    def test_clock_is_a_list_over_the_numbered_streams(self):
        t = ScheduleTrace()
        t.alloc("Y0", 64)
        t.kernel("k", COMPUTE_STREAM, writes=("Y0",))
        t.sync(COMPUTE_STREAM)
        assert t.streams == [HOST_STREAM, COMPUTE_STREAM]
        hb = HBGraph(t)
        assert hb.clock == [[-1, -1], [0, -1], [0, 0]]

    def test_a_stream_named_only_by_a_wait_gets_an_id(self):
        t = ScheduleTrace()
        t.sync(MEMORY_STREAM)          # nothing issued on it yet
        assert t.streams == [HOST_STREAM, MEMORY_STREAM]
        assert HBGraph(t).clock == [[-1, -1]]

    def test_three_stream_pairs_report_in_access_order(self):
        """Bucketing by stream keeps the reference's (i, j) order."""
        t = ScheduleTrace()
        t.alloc("Y0", 64)
        t.kernel("a", "s0", writes=("Y0",))
        t.kernel("b", "s1", reads=("Y0",))
        t.kernel("c", "s2", writes=("Y0",))
        t.kernel("d", "s0", reads=("Y0",))
        races = check_races(t)
        assert races == reference.check_races(t)
        assert [(d.refs[0].split()[-1], d.refs[1].split()[-1])
                for d in races] == [("a", "b"), ("a", "c"), ("b", "c"),
                                    ("c", "d")]

    def test_single_stream_epoch_has_no_pairs(self):
        t = ScheduleTrace()
        t.alloc("NET", 64)
        for step in range(200):
            t.kernel(f"k{step}", COMPUTE_STREAM, reads=("NET",),
                     writes=("NET",))
        t.free("NET", COMPUTE_STREAM)
        assert check_races(t) == reference.check_races(t) == []


BUFFERS = ("A", "B", "C")
DEVICE_STREAMS = ("s0", "s1", MEMORY_STREAM)


@st.composite
def fork_join_traces(draw):
    """Kernels forked over three device streams, DMAs gated on events
    of other streams, host joins on any stream, and lifetimes opened
    and closed anywhere: races, late releases, unsynchronized prefetch
    reads and leaks are all common.  One wait in twenty names a
    position not yet issued."""
    t = ScheduleTrace()
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(
            ("alloc", "free", "kernel", "kernel", "offload", "prefetch",
             "sync")))
        buffer = draw(st.sampled_from(BUFFERS))
        stream = draw(st.sampled_from(DEVICE_STREAMS))
        wait_stream = draw(st.sampled_from(DEVICE_STREAMS + ("",)))
        wait_pos = -1
        if wait_stream:
            wait_pos = draw(st.integers(-1, t.position(wait_stream)))
            if draw(st.integers(0, 19)) == 0:
                wait_pos = t.position(wait_stream) + 1
        if kind == "alloc":
            slot = BUFFERS.index(buffer)
            t.alloc(buffer, 64, offset=draw(st.sampled_from((-1, 64 * slot,
                                                             32))),
                    size=64)
        elif kind == "free":
            t.free(buffer, stream, phase=draw(st.sampled_from(("", "fwd"))))
        elif kind == "kernel":
            reads = draw(st.lists(st.sampled_from(BUFFERS), max_size=2))
            writes = draw(st.lists(st.sampled_from(BUFFERS), max_size=2))
            t.kernel("k", stream, reads=reads, writes=writes,
                     layer=draw(st.integers(-1, 3)),
                     phase=draw(st.sampled_from(("fwd", "bwd"))))
        elif kind == "offload":
            t.offload(buffer, stream, wait_stream=wait_stream,
                      wait_pos=wait_pos, target_layer=draw(
                          st.integers(-1, 3)))
        elif kind == "prefetch":
            t.prefetch(buffer, stream, wait_stream=wait_stream,
                       wait_pos=wait_pos, target_layer=draw(
                           st.integers(-1, 3)), layer=draw(
                           st.integers(-1, 5)))
        else:
            t.sync(wait_stream or stream, wait_pos=wait_pos)
    return t


class TestGeneratedTraces:
    @settings(max_examples=200, deadline=None)
    @given(fork_join_traces())
    def test_findings_and_happens_before_match(self, trace):
        races, _ = assert_passes_match(trace)
        if isinstance(races, list):   # every wait names an issued op
            assert_happens_before_matches(trace)

    @settings(max_examples=100, deadline=None)
    @given(fork_join_traces(), st.data())
    def test_mutants_match(self, trace, data):
        seq = data.draw(st.integers(0, len(trace) - 1))
        assert_passes_match(trace.without(seq))
