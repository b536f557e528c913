"""Tests for the fault-injection subsystem (repro.faults) and the
graceful-degradation reactions wired through the executor, the
scheduler, the allocator and the sanitizer."""

import math

import pytest

from repro.alloc import PoolAllocator
from repro.core.algo_config import AlgoConfig
from repro.core.api import evaluate
from repro.core.executor import simulate_vdnn
from repro.core.policy import TransferPolicy
from repro.core.prefetcher import PrefetchState, find_prefetch_layer
from repro.faults import (
    DEFAULT_BACKOFF_BASE,
    DEFAULT_MAX_ATTEMPTS,
    FaultInjector,
    FaultReport,
    FaultSpec,
    FaultSpecError,
    make_injector,
)
from repro.analysis.verify import verify_result, verify_schedule
from repro.cluster import FleetContention, FleetScheduler
from repro.hw import PAPER_SYSTEM, make_topology
from repro.sched import (
    ContentionModel,
    GPUScheduler,
    Job,
    JobState,
    schedule_jobs,
)
from repro.sim import EventKind
from repro.zoo import build

MB = 1 << 20
GB = 1 << 30


def vdnn_all(network, **kwargs):
    return simulate_vdnn(
        network, PAPER_SYSTEM, TransferPolicy.vdnn_all(),
        AlgoConfig.performance_optimal(network), **kwargs,
    )


# ----------------------------------------------------------------------
# FaultSpec: grammar, validation, backoff
# ----------------------------------------------------------------------
class TestFaultSpec:
    def test_parse_full_grammar(self):
        spec = FaultSpec.parse(
            "dma=0.1,dma_prefetch=0.3,pcie=0.5,jitter=0.2,pinned=0.75,"
            "retries=5,backoff=0.01,shrink@30=0.5,evict@10=vgg16#1")
        assert spec.dma_failure_rate == 0.1
        assert spec.failure_rate("prefetch") == 0.3
        assert spec.failure_rate("offload") == 0.1
        assert spec.pcie_bw_factor == 0.5
        assert spec.pcie_jitter == 0.2
        assert spec.pinned_budget_factor == 0.75
        assert spec.max_dma_attempts == 5
        assert spec.backoff_base == 0.01
        assert spec.budget_shrinks == ((30.0, 0.5),)
        assert spec.evictions == ((10.0, "vgg16#1"),)

    def test_label_round_trips(self):
        text = "dma=0.1,pcie=0.5,retries=5,shrink@30=0.5,evict@10=a#1"
        spec = FaultSpec.parse(text)
        assert FaultSpec.parse(spec.label) == spec

    @pytest.mark.parametrize("text", ["", "none"])
    def test_empty_spec_is_neutral(self, text):
        spec = FaultSpec.parse(text)
        assert spec == FaultSpec.none()
        assert not spec.enabled
        assert spec.label == "none"

    @pytest.mark.parametrize("text", [
        "dma=1.5",            # rate out of range
        "pcie=0",             # bandwidth factor must be positive
        "pcie=1.2",           # cannot exceed nominal bandwidth
        "jitter=1.0",         # jitter must stay below full swing
        "retries=0",          # at least one attempt
        "backoff_factor=0.5", # backoff must not shrink
        "shrink@-1=0.5",      # negative time
        "shrink@10=0",        # zero budget
        "evict@5=",           # empty job name
        "warp@3=1",           # unknown timed fault
        "nosuchkey=1",        # unknown key
        "dma",                # missing value
        "dma=abc",            # not a number
        "shrink@abc=0.5",     # bad timestamp
    ])
    def test_invalid_specs_rejected(self, text):
        with pytest.raises(FaultSpecError):
            FaultSpec.parse(text)

    def test_backoff_is_monotone_exponential(self):
        spec = FaultSpec(backoff_base=0.004, backoff_factor=2.0)
        waits = [spec.backoff_seconds(a) for a in range(1, 6)]
        assert waits[0] == 0.004
        assert all(b == 2.0 * a for a, b in zip(waits, waits[1:]))
        with pytest.raises(ValueError):
            spec.backoff_seconds(0)


# ----------------------------------------------------------------------
# FaultInjector: determinism and neutrality
# ----------------------------------------------------------------------
class TestInjector:
    def test_neutral_spec_never_touches_rng(self):
        injector = FaultInjector(FaultSpec.none(), seed=1)
        state = injector.rng.getstate()
        assert injector.dma_seconds(PAPER_SYSTEM.pcie, 64 * MB) \
            == PAPER_SYSTEM.pcie.dma_time(64 * MB)
        assert injector.dma_fails("offload") is False
        assert injector.rng.getstate() == state

    def test_same_seed_same_draw_sequence(self):
        spec = FaultSpec(dma_failure_rate=0.5, pcie_jitter=0.3)
        a = FaultInjector(spec, seed=42)
        b = FaultInjector(spec, seed=42)
        for _ in range(50):
            assert a.dma_fails("offload") == b.dma_fails("offload")
            assert a.dma_seconds(PAPER_SYSTEM.pcie, MB) \
                == b.dma_seconds(PAPER_SYSTEM.pcie, MB)

    def test_degraded_bandwidth_stretches_wire_time_only(self):
        injector = FaultInjector(FaultSpec(pcie_bw_factor=0.5))
        base = PAPER_SYSTEM.pcie.dma_time(64 * MB)
        slowed = injector.dma_seconds(PAPER_SYSTEM.pcie, 64 * MB)
        wire = base - PAPER_SYSTEM.pcie.dma_setup_latency
        assert slowed == pytest.approx(
            PAPER_SYSTEM.pcie.dma_setup_latency + wire / 0.5)

    def test_make_injector_none_passthrough(self):
        assert make_injector(None) is None
        assert make_injector(FaultSpec.none(), seed=3).seed == 3


# ----------------------------------------------------------------------
# Executor: faulted vDNN simulation
# ----------------------------------------------------------------------
class TestExecutorFaults:
    def test_no_faults_bit_identical_to_unfaulted(self):
        network = build("alexnet", 8)
        clean = vdnn_all(network)
        neutral = vdnn_all(network, faults=FaultSpec.none(), fault_seed=9)
        assert neutral.total_time == clean.total_time
        assert neutral.timeline.events == clean.timeline.events
        assert neutral.max_usage_bytes == clean.max_usage_bytes
        assert neutral.fault_report.total_faults == 0

    def test_same_seed_byte_identical_report(self):
        network = build("alexnet", 8)
        spec = FaultSpec.parse("dma=0.2,pcie=0.7,jitter=0.1")
        one = vdnn_all(network, faults=spec, fault_seed=7)
        two = vdnn_all(network, faults=spec, fault_seed=7)
        assert one.fault_report.to_json() == two.fault_report.to_json()
        assert one.total_time == two.total_time

    def test_different_seeds_differ(self):
        network = build("alexnet", 8)
        spec = FaultSpec.parse("dma=0.3,jitter=0.2")
        reports = {
            vdnn_all(network, faults=spec, fault_seed=s)
            .fault_report.to_json()
            for s in range(4)
        }
        assert len(reports) > 1

    def test_transient_failures_recover_via_retry(self):
        network = build("alexnet", 8)
        result = vdnn_all(
            network, faults=FaultSpec.parse("dma=0.2"), fault_seed=7)
        report = result.fault_report
        assert result.trainable and result.failure is None
        assert report.total_faults > 0
        assert report.retries > 0
        assert report.recovery_rate == 1.0
        # Failed attempts occupy the engine (FAULT), backoff idles (RETRY).
        kinds = {e.kind for e in result.timeline.events}
        assert EventKind.FAULT in kinds and EventKind.RETRY in kinds

    def test_attempts_bounded_by_spec(self):
        network = build("alexnet", 8)
        result = vdnn_all(
            network,
            faults=FaultSpec.parse("dma_prefetch=0.9,retries=2"),
            fault_seed=1)
        assert all(e.attempts <= 2 for e in result.fault_report.events)

    def test_exhausted_demand_fetch_is_structured_failure(self):
        network = build("alexnet", 8)
        result = vdnn_all(
            network,
            faults=FaultSpec.parse("dma_prefetch=0.9,retries=2"),
            fault_seed=0)
        assert not result.trainable
        assert "DMA transfer permanently failed" in result.failure
        assert result.fault_report.count("fatal") >= 1
        assert result.fault_report.recovery_rate < 1.0

    def test_abandoned_offload_degrades_without_corruption(self):
        # Offloads that permanently fail are abandoned: the tensor stays
        # resident on the GPU and the run completes without them.
        network = build("alexnet", 8)
        result = vdnn_all(
            network,
            faults=FaultSpec.parse("dma_offload=0.95,retries=1"),
            fault_seed=0)
        assert result.trainable
        degraded = [e for e in result.fault_report.events
                    if e.outcome == "degraded"]
        assert degraded
        assert all(e.kind == "dma-offload" for e in degraded)

    def test_abandoned_prefetch_is_deferred_not_lost(self):
        network = build("alexnet", 8)
        result = vdnn_all(
            network,
            faults=FaultSpec.parse("dma_prefetch=0.6,retries=2"),
            fault_seed=3)
        report = result.fault_report
        deferred = [e for e in report.events if e.outcome == "deferred"]
        assert deferred
        assert all(e.kind == "dma-prefetch" for e in deferred)
        # Deferral falls back to demand fetch; the run still completes.
        assert result.trainable

    def test_degraded_link_slows_but_completes(self):
        network = build("alexnet", 8)
        clean = vdnn_all(network)
        slow = vdnn_all(
            network, faults=FaultSpec.parse("pcie=0.25"), fault_seed=0)
        assert slow.trainable
        assert slow.total_time > clean.total_time

    def test_faulted_traced_run_passes_sanitizer(self):
        network = build("alexnet", 8)
        result = vdnn_all(
            network, faults=FaultSpec.parse("dma=0.2,jitter=0.1"),
            fault_seed=7, verify=True)
        assert verify_result(result, network=network).ok

    def test_evaluate_rejects_faults_on_baseline(self):
        network = build("alexnet", 8)
        with pytest.raises(ValueError, match="baseline"):
            evaluate(network, policy="base",
                     faults=FaultSpec.parse("dma=0.1"))


# ----------------------------------------------------------------------
# Prefetcher: claim / unclaim (satellite fix)
# ----------------------------------------------------------------------
class TestPrefetchUnclaim:
    def test_unclaimed_layer_is_found_again(self):
        network = build("alexnet", 8)
        state = PrefetchState.for_network(network)
        last = len(list(network)) - 1
        for index in range(last):
            state.mark_offloaded(index)
        first = find_prefetch_layer(network, state, last,
                                    bounded_window=False)
        assert first is not None and state.prefetched[first]
        # The caller's DMA failed: roll the claim back and search again.
        state.unclaim(first)
        assert not state.prefetched[first]
        assert find_prefetch_layer(network, state, last,
                                   bounded_window=False) == first


# ----------------------------------------------------------------------
# PoolAllocator: blockers_above / shrink
# ----------------------------------------------------------------------
class TestPoolShrink:
    def test_shrink_free_pool(self):
        pool = PoolAllocator(64 * MB)
        assert pool.blockers_above(32 * MB) == []
        pool.shrink(32 * MB)
        assert pool.capacity == 32 * MB
        assert pool.can_fit(32 * MB) and not pool.can_fit(32 * MB + 1)

    def test_blockers_sorted_highest_first(self):
        pool = PoolAllocator(64 * MB)
        low = pool.alloc(16 * MB)
        high = pool.alloc(16 * MB)
        blockers = pool.blockers_above(24 * MB)
        assert blockers == [high]
        pool.free(high)
        assert pool.blockers_above(24 * MB) == []
        pool.shrink(24 * MB)
        assert pool.capacity == 24 * MB
        assert low.offset == 0

    def test_shrink_with_blockers_raises(self):
        pool = PoolAllocator(64 * MB)
        pool.alloc(48 * MB)
        with pytest.raises(ValueError):
            pool.shrink(32 * MB)

    @pytest.mark.parametrize("new", [0, -1, 128 * MB])
    def test_shrink_invalid_capacity_raises(self, new):
        pool = PoolAllocator(64 * MB)
        with pytest.raises(ValueError):
            pool.shrink(new)


# ----------------------------------------------------------------------
# Scheduler: timed faults, eviction, readmission, shrink
# ----------------------------------------------------------------------
def fleet(iterations=50):
    return [
        Job("vgg16#1", "vgg16", batch_size=64, iterations=iterations,
            submit_time=0.0),
        Job("resnet50#2", "resnet50", batch_size=32, iterations=iterations,
            submit_time=0.1),
        Job("googlenet#3", "googlenet", batch_size=128,
            iterations=iterations, submit_time=0.2),
    ]


class TestSchedulerFaults:
    def test_eviction_requeues_and_finishes(self):
        spec = FaultSpec.parse("evict@0.5=vgg16#1")
        result = schedule_jobs(fleet(), faults=spec, fault_seed=0)
        record = next(r for r in result.records
                      if r.job.name == "vgg16#1")
        assert record.evictions == 1
        assert record.state is JobState.FINISHED
        assert record.requeued_at == 0.5
        event = next(e for e in result.fault_report.events
                     if e.kind == "eviction")
        assert event.outcome == "recovered"
        assert result.fault_report.recovery_rate == 1.0

    def test_evicting_absent_job_is_recorded_noop(self):
        spec = FaultSpec.parse("evict@0.5=ghost")
        result = schedule_jobs(fleet(), faults=spec)
        event = result.fault_report.events[0]
        assert event.target == "ghost" and "no-op" in event.detail
        assert all(r.state is JobState.FINISHED for r in result.records)

    def test_shrink_updates_budget_timeline(self):
        spec = FaultSpec.parse("shrink@0.3=0.25")
        result = schedule_jobs(fleet(), faults=spec, fault_seed=3)
        assert len(result.budget_timeline) == 2
        (t0, full), (t1, cut) = result.budget_timeline
        assert t1 == 0.3 and cut == full // 4
        assert result.budget_bytes == cut
        assert result.budget_at(0.0) == full
        assert result.budget_at(0.3) == cut
        shrink = next(e for e in result.fault_report.events
                      if e.kind == "budget-shrink")
        assert shrink.nbytes == cut

    def test_shrink_evicts_blockers_and_degrades_rungs(self):
        spec = FaultSpec.parse("shrink@0.3=0.25")
        result = schedule_jobs(fleet(), faults=spec, fault_seed=3)
        assert result.evicted
        # Every evicted job either finished (possibly on a cheaper rung)
        # or was rejected with a structured reason — never left limbo.
        for record in result.evicted:
            assert record.state in (JobState.FINISHED, JobState.REJECTED)
            if record.state is JobState.REJECTED:
                assert record.failure

    def test_faulted_schedule_passes_sanitizer(self):
        spec = FaultSpec.parse("shrink@0.3=0.25,evict@0.5=resnet50#2")
        result = schedule_jobs(fleet(), faults=spec, fault_seed=3)
        report = verify_schedule(result)
        assert report.ok, report.render_text()

    def test_scheduler_fault_report_deterministic(self):
        spec = FaultSpec.parse("shrink@0.3=0.5,evict@0.5=vgg16#1")
        one = schedule_jobs(fleet(), faults=spec, fault_seed=5)
        two = schedule_jobs(fleet(), faults=spec, fault_seed=5)
        assert one.fault_report.to_json() == two.fault_report.to_json()

    def test_no_faults_bit_identical_schedule(self):
        clean = schedule_jobs(fleet())
        neutral = schedule_jobs(fleet(), faults=FaultSpec.none())
        assert neutral.timeline.events == clean.timeline.events
        assert [r.finish_time for r in neutral.records] \
            == [r.finish_time for r in clean.records]
        assert neutral.fault_report.total_faults == 0
        assert clean.fault_report is None


# ----------------------------------------------------------------------
# Scheduler liveness regressions (satellite fixes)
# ----------------------------------------------------------------------
class _FixedContention(ContentionModel):
    """Contention model pinning every tenant to one iteration time."""

    def __init__(self, iter_seconds):
        super().__init__()
        self._iter_seconds = iter_seconds

    def iteration_seconds(self, rungs):
        return [self._iter_seconds] * len(rungs)


class _FixedFleetContention(FleetContention):
    """Fleet contention pinning every placed gang to one iteration time."""

    def __init__(self, iter_seconds):
        super().__init__(make_topology("pcie-switch", 1))
        self._iter_seconds = iter_seconds

    def iteration_seconds(self, entries):
        return [self._iter_seconds] * len(entries)


class TestSchedulerLiveness:
    """Liveness guards of the shared event loop, on the single GPU."""

    def make_scheduler(self, iter_seconds):
        return GPUScheduler(
            budget_bytes=16 * GB,
            contention=_FixedContention(iter_seconds),
        )

    def held_bytes(self, result):
        return result.final_pool_live_bytes

    def run_with_rate(self, iter_seconds, submit_time=0.0):
        self.scheduler = self.make_scheduler(iter_seconds)
        self.scheduler.submit(Job("j", "alexnet", 8, iterations=100,
                                  submit_time=submit_time))
        return self.scheduler.run()

    def test_zero_cost_rung_completes_immediately(self):
        # Regression: iter_seconds == 0 used to make the event horizon
        # collapse (clock + 0 == clock) and the run loop spin forever.
        result = self.run_with_rate(0.0)
        record = result.records[0]
        assert record.state is JobState.FINISHED
        assert record.finish_time == 0.0
        assert record.residency == [(0.0, 0.0, 1)]
        assert [(e.start, e.end) for e in result.timeline.on_stream("job:j")
                if e.kind is EventKind.RUN] == [(0.0, 0.0)]
        assert self.held_bytes(result) == 0

    def test_float_underflow_progress_still_terminates(self):
        # finish == clock + tiny underflows back to clock at a large
        # submit time; the completion sweep must still collect the job.
        result = self.run_with_rate(1e-12, submit_time=1e9)
        assert result.records[0].state is JobState.FINISHED

    def test_pathological_rates_never_hang(self):
        for rate in (float("inf"), -1.0):
            try:
                result = self.run_with_rate(rate)
            except RuntimeError as error:
                assert "no progress" in str(error)
            else:
                assert result.records[0].state in (
                    JobState.FINISHED, JobState.REJECTED)

    def test_nan_rate_raises_instead_of_spinning(self):
        # A NaN rate gives a NaN horizon: no event can ever change the
        # loop's state, and the no-progress guard must say so.
        scheduler = self.make_scheduler(float("nan"))
        scheduler.submit(Job("j", "alexnet", 8, iterations=100))
        admit, spins = scheduler._try_admit, []

        def bounded(*args):
            spins.append(None)
            assert len(spins) < 100, "the event loop spun"
            admit(*args)

        scheduler._try_admit = bounded
        with pytest.raises(RuntimeError, match="no progress"):
            scheduler.run()


class TestFleetSchedulerLiveness(TestSchedulerLiveness):
    """The same guards on the fleet scheduler, which runs the same loop."""

    def make_scheduler(self, iter_seconds):
        return FleetScheduler(
            num_gpus=1, budget_bytes=16 * GB,
            contention=_FixedFleetContention(iter_seconds),
        )

    def held_bytes(self, result):
        return sum(16 * GB - free
                   for free in self.scheduler.free_bytes.values())


# ----------------------------------------------------------------------
# JobRecord metric hygiene (satellite fixes)
# ----------------------------------------------------------------------
class TestJobRecordMetrics:
    def rejected_record(self):
        result = schedule_jobs(
            [Job("big", "vgg16", 64, iterations=5, deadline=1e9)],
            budget_bytes=256 * MB,
        )
        return result.records[0]

    def test_rejected_job_has_no_completion_time(self):
        record = self.rejected_record()
        assert record.state is JobState.REJECTED
        assert record.finish_time is not None  # rejection instant
        assert record.completion_time is None
        assert record.service_time is None
        assert record.slowdown is None

    def test_rejected_job_never_meets_deadline(self):
        record = self.rejected_record()
        assert record.deadline_met is False

    def test_finished_job_deadline_semantics(self):
        result = schedule_jobs(
            [Job("j", "alexnet", 8, iterations=5, deadline=1e9)])
        record = result.records[0]
        assert record.state is JobState.FINISHED
        assert record.deadline_met is True
        assert record.completion_time == pytest.approx(record.finish_time)

    @pytest.mark.parametrize("batch", [0, -8])
    def test_nonpositive_batch_rejected(self, batch):
        with pytest.raises(ValueError, match="batch_size"):
            Job("j", "vgg16", batch_size=batch)

    @pytest.mark.parametrize("spec", ["vgg16:0", "vgg16:-8:10"])
    def test_parse_nonpositive_batch_rejected(self, spec):
        with pytest.raises(ValueError):
            Job.parse(spec)


# ----------------------------------------------------------------------
# FaultReport aggregation
# ----------------------------------------------------------------------
class TestFaultReport:
    def test_empty_report_is_perfect(self):
        report = FaultReport(spec=FaultSpec.none(), seed=0)
        assert report.recovery_rate == 1.0
        assert report.total_faults == 0 and report.retries == 0

    def test_recovery_rate_counts_only_failures(self):
        from repro.faults import FaultEvent

        report = FaultReport(spec=FaultSpec.none(), seed=0)
        for outcome in ("recovered", "degraded", "deferred", "fatal"):
            report.add(FaultEvent(kind="dma-offload", time=0.0,
                                  target="x", outcome=outcome))
        assert report.recovery_rate == pytest.approx(0.75)
        assert report.outcomes == {
            "recovered": 1, "degraded": 1, "deferred": 1, "fatal": 1}

    def test_json_sorted_and_stable(self):
        report = FaultReport(spec=FaultSpec.parse("dma=0.1"), seed=4)
        text = report.to_json()
        assert text == report.to_json()
        assert text.index('"events"') < text.index('"seed"')
