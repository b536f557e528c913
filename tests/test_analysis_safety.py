"""Memory-safety replay rules over hand-built traces.

Known-bad fixtures, one per MS1xx rule, each asserting the rule fires
exactly once (and nothing else fires that the defect doesn't imply).
The offset-indexed replay is then held to the linear live-set scan it
replaced, diagnostic for diagnostic, on executor traces, their
single-op mutants and generated traces; the scan runs inside the
op-at-a-time reference replay of ``analysis_reference``.
"""

from unittest import mock

import analysis_reference as reference
import pytest
from analysis_reference import ORACLE_NETWORKS, ORACLE_POLICIES, zoo_trace
from conftest import make_linear_cnn
from hypothesis import given, settings, strategies as st

from repro.analysis.hb import HBGraph
from repro.analysis.safety import check_memory_safety
from repro.analysis.trace import ScheduleTrace
from repro.core.liveness import LivenessAnalysis
from repro.sim.stream import COMPUTE_STREAM, MEMORY_STREAM


def rules(findings):
    return [d.rule for d in findings]


class TestLifetimeRules:
    def test_clean_lifetime_is_silent(self):
        t = ScheduleTrace()
        t.alloc("Y0", 64, offset=0, size=256)
        t.kernel("k", COMPUTE_STREAM, reads=("Y0",))
        t.free("Y0", COMPUTE_STREAM, offset=0, size=256)
        assert check_memory_safety(t) == []

    def test_use_after_release_fires_ms101_once(self):
        t = ScheduleTrace()
        t.alloc("Y0", 64, offset=0, size=256)
        t.free("Y0", COMPUTE_STREAM, offset=0, size=256)
        t.kernel("k1", COMPUTE_STREAM, reads=("Y0",))
        t.kernel("k2", COMPUTE_STREAM, reads=("Y0",))  # deduped per buffer
        findings = check_memory_safety(t)
        assert rules(findings).count("MS101") == 1

    def test_double_free_fires_ms102_once(self):
        t = ScheduleTrace()
        t.alloc("Y0", 64, offset=0, size=256)
        t.free("Y0", COMPUTE_STREAM, offset=0, size=256)
        t.free("Y0", COMPUTE_STREAM, offset=0, size=256)
        assert rules(check_memory_safety(t)) == ["MS102"]

    def test_leaked_block_fires_ms103_once(self):
        t = ScheduleTrace()
        t.alloc("Y0", 64, offset=0, size=256)
        t.kernel("k", COMPUTE_STREAM, reads=("Y0",))
        assert rules(check_memory_safety(t)) == ["MS103"]

    def test_persistent_blocks_are_not_leaks(self):
        t = ScheduleTrace()
        t.alloc("W1", 64, offset=0, size=256, persistent=True)
        assert check_memory_safety(t) == []


class TestOverlapRules:
    def test_overlapping_live_ranges_fire_ms104_once(self):
        t = ScheduleTrace()
        t.alloc("Y0", 512, offset=0, size=512)
        t.alloc("Y1", 512, offset=256, size=512)   # intersects [0, 512)
        t.free("Y0", COMPUTE_STREAM, offset=0, size=512)
        t.free("Y1", COMPUTE_STREAM, offset=256, size=512)
        findings = check_memory_safety(t)
        assert rules(findings) == ["MS104"]

    def test_disjoint_live_ranges_are_fine(self):
        t = ScheduleTrace()
        t.alloc("Y0", 512, offset=0, size=512)
        t.alloc("Y1", 512, offset=512, size=512)
        t.free("Y0", COMPUTE_STREAM, offset=0, size=512)
        t.free("Y1", COMPUTE_STREAM, offset=512, size=512)
        assert check_memory_safety(t) == []

    def test_reuse_under_inflight_offload_fires_ms104(self):
        """Release raced the DMA, pool recycled the bytes: corruption."""
        t = ScheduleTrace()
        t.alloc("Y0", 512, offset=0, size=512)
        t.offload("Y0", MEMORY_STREAM, nbytes=512)
        t.free("Y0", COMPUTE_STREAM, offset=0, size=512)  # no sync first
        t.alloc("Y1", 512, offset=0, size=512)             # lands on hot bytes
        t.free("Y1", COMPUTE_STREAM, offset=0, size=512)
        findings = check_memory_safety(t)
        assert rules(findings).count("MS104") == 1

    def test_sync_cools_the_range_before_reuse(self):
        t = ScheduleTrace()
        t.alloc("Y0", 512, offset=0, size=512)
        t.offload("Y0", MEMORY_STREAM, nbytes=512)
        t.sync(MEMORY_STREAM)
        t.free("Y0", COMPUTE_STREAM, offset=0, size=512)
        t.alloc("Y1", 512, offset=0, size=512)
        t.free("Y1", COMPUTE_STREAM, offset=0, size=512)
        assert check_memory_safety(t) == []


class TestRefcountGate:
    """MS105 needs the network's liveness to know the release gates."""

    def setup_method(self):
        self.network = make_linear_cnn()
        self.liveness = LivenessAnalysis(self.network)
        # A storage some later forward layer still reads.
        self.storage = next(
            s for s in self.liveness.all_storages()
            if s.forward_release_at > s.owner and s.needed_backward)

    def test_release_before_last_consumer_fires_ms105_once(self):
        s = self.storage
        t = ScheduleTrace()
        t.alloc(f"Y{s.owner}", s.nbytes, owner=s.owner)
        # Freed in the forward pass without the gate kernel ever issuing.
        t.free(f"Y{s.owner}", COMPUTE_STREAM, owner=s.owner, phase="fwd")
        findings = check_memory_safety(t, liveness=self.liveness)
        assert rules(findings).count("MS105") == 1

    def test_discard_without_offload_fires_ms105_once(self):
        s = self.storage
        t = ScheduleTrace()
        t.alloc(f"Y{s.owner}", s.nbytes, owner=s.owner)
        t.kernel("gate", COMPUTE_STREAM, reads=(f"Y{s.owner}",),
                 layer=s.forward_release_at, phase="fwd")
        # Gate satisfied, but backward still needs the data and no
        # offload staged it to the host.
        t.free(f"Y{s.owner}", COMPUTE_STREAM, owner=s.owner, phase="fwd",
               layer=s.forward_release_at)
        findings = check_memory_safety(t, liveness=self.liveness)
        assert rules(findings).count("MS105") == 1

    def test_offload_then_release_at_gate_is_clean(self):
        s = self.storage
        t = ScheduleTrace()
        t.alloc(f"Y{s.owner}", s.nbytes, owner=s.owner)
        t.kernel("gate", COMPUTE_STREAM, reads=(f"Y{s.owner}",),
                 layer=s.forward_release_at, phase="fwd")
        t.offload(f"Y{s.owner}", MEMORY_STREAM, nbytes=s.nbytes,
                  owner=s.owner)
        t.sync(MEMORY_STREAM)
        t.free(f"Y{s.owner}", COMPUTE_STREAM, owner=s.owner, phase="fwd",
               layer=s.forward_release_at)
        assert check_memory_safety(t, liveness=self.liveness) == []


# ----------------------------------------------------------------------
# The linear scan the offset index replaced, kept as the oracle
# ----------------------------------------------------------------------
def reference_replay_alloc(op, live, hot, report):
    """The reference replay's ALLOC step before the offset index: test
    the new range against every live block, in the live set's insertion
    order."""
    if op.buffer in live:
        report(
            "MS104",
            f"{op.buffer} allocated twice without an intervening free",
            live[op.buffer].alloc, op)
    block = reference.LiveBlock(buffer=op.buffer, alloc=op, offloads=[])
    if block.has_range:
        lo, hi = block.range
        for other in live.values():
            if other.buffer != op.buffer and other.has_range and \
                    reference._overlaps(lo, hi, *other.range):
                report(
                    "MS104",
                    f"{op.buffer} at [{lo}, {hi}) overlaps live buffer "
                    f"{other.buffer} at "
                    f"[{other.range[0]}, {other.range[1]})",
                    op, other.alloc)
        for entry in hot:
            if reference._overlaps(lo, hi, entry.lo, entry.hi):
                report(
                    "MS104",
                    f"{op.buffer} at [{lo}, {hi}) reuses bytes of "
                    f"{entry.buffer} while its offload may still be "
                    f"reading them",
                    op, entry.transfer)
    live[op.buffer] = block


def reference_findings(trace, hb, liveness=None):
    """The op-at-a-time replay of ``analysis_reference``, with its ALLOC
    step swapped for the linear scan."""
    def replay(op, live, hot, index, report):
        index.usable = False   # so the FREE step leaves the index alone
        reference_replay_alloc(op, live, hot, report)

    with mock.patch.object(reference, "_replay_alloc", replay):
        return reference.check_memory_safety(trace, hb, liveness=liveness)


def assert_matches_oracle(trace, liveness=None):
    """Equal rules, messages, refs and order; returns the findings."""
    hb = HBGraph(trace)
    findings = check_memory_safety(trace, hb, liveness=liveness)
    assert findings == reference_findings(trace, hb, liveness)
    return findings


class TestOffsetIndexOracle:
    @pytest.mark.parametrize("policy", ORACLE_POLICIES)
    @pytest.mark.parametrize("name", ORACLE_NETWORKS)
    def test_executor_traces_match_the_linear_scan(self, name, policy):
        trace, _, liveness = zoo_trace(name, policy)
        assert assert_matches_oracle(trace, liveness) == []

    @pytest.mark.parametrize("policy", ORACLE_POLICIES)
    def test_every_single_op_mutant_matches_the_linear_scan(self, policy):
        trace, _, liveness = zoo_trace("alexnet", policy)
        overlaps = 0
        for op in trace.ops:
            findings = assert_matches_oracle(trace.without(op.seq), liveness)
            overlaps += sum("overlaps live buffer" in d.message
                            for d in findings)
        # Dropped frees leave blocks the pool has already reused: the
        # fallback scan must have run and agreed.
        assert overlaps > 0

    def test_overlap_fallback_reports_every_live_block_in_order(self):
        t = ScheduleTrace()
        t.alloc("A", 256, offset=512, size=256)
        t.alloc("B", 256, offset=0, size=256)
        t.alloc("C", 1024, offset=0, size=1024)   # covers A and B
        t.alloc("D", 256, offset=768, size=256)   # overlaps C only
        findings = assert_matches_oracle(t)
        # The second ref names the live block each finding overlaps.
        assert [d.refs[1].split()[-1] for d in findings
                if d.rule == "MS104"] == ["A", "B", "C"]

    def test_double_alloc_then_overlap_matches(self):
        t = ScheduleTrace()
        t.alloc("A", 256, offset=0, size=256)
        t.alloc("A", 256, offset=256, size=256)   # old range drops out
        t.alloc("B", 256, offset=0, size=256)     # so this one is clean
        t.alloc("C", 256, offset=256, size=256)   # overlaps A's new range
        assert assert_matches_oracle(t)

    def test_free_removes_only_its_own_range(self):
        t = ScheduleTrace()
        t.alloc("A", 64, offset=0, size=64)
        t.alloc("B", 64, offset=128, size=64)
        t.free("A", COMPUTE_STREAM)
        t.alloc("C", 64, offset=128, size=64)    # B still holds these
        findings = assert_matches_oracle(t)
        assert any("C at [128, 192) overlaps live buffer B" in d.message
                   for d in findings)

    def test_freed_range_is_reusable_through_the_index(self):
        t = ScheduleTrace()
        for step in range(4):
            t.alloc(f"Y{step}", 512, offset=0, size=512)
            t.alloc(f"Z{step}", 512, offset=512, size=512)
            t.free(f"Y{step}", COMPUTE_STREAM, offset=0, size=512)
            t.free(f"Z{step}", COMPUTE_STREAM, offset=512, size=512)
        assert assert_matches_oracle(t) == []


BUFFERS = ("A", "B", "C", "D")
STREAMS = (COMPUTE_STREAM, MEMORY_STREAM)


@st.composite
def replay_traces(draw):
    """Traces mixing placed, unplaced (offset -1) and zero-size blocks
    on a coarse offset grid, so overlapping live ranges, double allocs,
    double frees and hot ranges under unsynchronized offloads are all
    common."""
    disjoint = draw(st.booleans())   # one fixed slot per buffer
    t = ScheduleTrace()
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(
            ("alloc", "alloc", "free", "free", "kernel", "offload",
             "sync")))
        buffer = draw(st.sampled_from(BUFFERS))
        stream = draw(st.sampled_from(STREAMS))
        if kind == "alloc":
            if disjoint:
                offset = 256 * BUFFERS.index(buffer)
                size = draw(st.sampled_from((0, 64, 256)))
            else:
                offset = draw(st.sampled_from((-1, 0, 64, 128, 256, 320)))
                size = draw(st.sampled_from((0, 64, 128, 256)))
            t.alloc(buffer, size, offset=offset, size=size)
        elif kind == "free":
            t.free(buffer, stream)
        elif kind == "kernel":
            t.kernel("k", stream, reads=(buffer,))
        elif kind == "offload":
            t.offload(buffer, MEMORY_STREAM)
        else:
            t.sync(stream)
    return t


class TestOffsetIndexProperties:
    @settings(max_examples=300, deadline=None)
    @given(replay_traces())
    def test_generated_traces_match_the_linear_scan(self, trace):
        assert_matches_oracle(trace)
