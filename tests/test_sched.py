"""Tests for the multi-tenant GPU scheduler (repro.sched)."""

from dataclasses import replace

import pytest

from repro.alloc import PoolAllocator
from repro.hw import PAPER_SYSTEM
from repro.perf import configure_cache, set_cache
from repro.sched import (
    AdmissionController,
    ContentionModel,
    GPUScheduler,
    Job,
    JobState,
    LADDER,
    RungEval,
    available_policies,
    evaluate_ladder,
    make_policy,
    schedule_jobs,
    schedule_report,
)
from repro.sim import EventKind, job_lane_name, timeline_to_trace_events
from repro.zoo import build

MB = 1 << 20
GB = 1 << 30


def synthetic_rung(label, footprint_mb, compute, pcie):
    return RungEval(
        rung=label,
        footprint_bytes=footprint_mb * MB,
        iter_seconds=max(compute, pcie),
        compute_seconds=compute,
        pcie_seconds=pcie,
        pcie_bytes=int(pcie * 12.8e9),
    )


class SyntheticController(AdmissionController):
    """Admission controller with hand-authored ladders (no simulation)."""

    def __init__(self, profiles):
        super().__init__(PAPER_SYSTEM)
        self.profiles = profiles

    def ladder(self, job):
        return self.profiles[job.job_key if hasattr(job, "job_key")
                             else job.name]


# ----------------------------------------------------------------------
# Job / parsing
# ----------------------------------------------------------------------
class TestJob:
    def test_parse_full_spec(self):
        job = Job.parse("vgg16:64:200", index=3)
        assert job.network == "vgg16"
        assert job.batch_size == 64
        assert job.iterations == 200
        assert job.name == "vgg16#3"

    def test_parse_defaults(self):
        job = Job.parse("alexnet")
        assert job.batch_size is None and job.iterations == 100

    def test_invalid_iterations_rejected(self):
        with pytest.raises(ValueError):
            Job("j", "alexnet", iterations=0)

    def test_build_network_uses_zoo(self):
        network = Job("j", "alexnet", 8).build_network()
        assert network.input_node.output_spec.shape[0] == 8


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
class TestLadder:
    def test_ladder_order_and_monotone_footprint(self):
        rungs = evaluate_ladder(build("vgg16", 64), PAPER_SYSTEM)
        assert [r.rung for r in rungs] == list(LADDER)
        # Fastest rung is hungriest; every later rung saves memory over
        # base(p) and costs time.
        base = rungs[0]
        for rung in rungs[1:]:
            assert rung.footprint_bytes < base.footprint_bytes
            assert rung.iter_seconds >= base.iter_seconds

    def test_hybrid_rung_moves_no_pcie_traffic(self):
        rungs = evaluate_ladder(build("alexnet", 32), PAPER_SYSTEM)
        hybrid = dict((r.rung, r) for r in rungs)["hybrid"]
        assert hybrid.pcie_bytes == 0 and hybrid.pcie_seconds == 0

    def test_controller_memoizes(self):
        controller = AdmissionController(PAPER_SYSTEM)
        job = Job("a", "alexnet", 16)
        first = controller.ladder(job)
        assert controller.ladder(Job("b", "alexnet", 16)) is first

    def test_controller_records_weight_bytes_with_ladder(self, monkeypatch):
        controller = AdmissionController(PAPER_SYSTEM)
        controller.ladder(Job("a", "alexnet", 16))
        monkeypatch.setattr(Job, "build_network",
                            lambda job: pytest.fail("network rebuilt"))
        assert controller.weight_bytes(Job("b", "alexnet", 16)) == \
            build("alexnet", 16).total_weight_bytes()

    def test_cheapest_fit_degrades_with_budget(self):
        controller = AdmissionController(PAPER_SYSTEM)
        job = Job("j", "vgg16", 64)
        rungs = controller.ladder(job)
        roomy = controller.cheapest_fit(job, 64 * GB)
        assert roomy.rung == "base(p)"
        tight = controller.cheapest_fit(job, rungs[2].footprint_bytes)
        assert tight.rung != "base(p)"
        assert controller.cheapest_fit(job, 1) is None


@pytest.fixture
def ladder_cache(monkeypatch):
    """A fresh process-wide perf cache with caching on; restored after."""
    monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
    yield configure_cache()
    set_cache(None)


def count_builds(monkeypatch):
    """Count ``Job.build_network`` calls from here on."""
    builds = []
    real = Job.build_network

    def counting(job):
        builds.append(job.name)
        return real(job)

    monkeypatch.setattr(Job, "build_network", counting)
    return builds


class TestLadderEntry:
    """One perf-cache entry per (zoo recipe, system) ladder."""

    def test_fresh_controller_builds_no_network(self, ladder_cache,
                                                 monkeypatch):
        job = Job("a", "alexnet", 16)
        first = AdmissionController(PAPER_SYSTEM)
        rungs, weights = first.ladder(job), first.weight_bytes(job)
        monkeypatch.setattr(Job, "build_network",
                            lambda job: pytest.fail("network rebuilt"))
        fresh = AdmissionController(PAPER_SYSTEM)
        assert fresh.ladder(Job("b", "alexnet", 16)) == rungs
        assert fresh.weight_bytes(job) == weights
        assert fresh.ladder(job) is fresh.ladder(job)

    def test_uncached_rebuilds_equal_values(self, ladder_cache,
                                            monkeypatch):
        job = Job("a", "alexnet", 16)
        cached = AdmissionController(PAPER_SYSTEM).ladder(job)
        configure_cache()
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        builds = count_builds(monkeypatch)
        for _ in range(2):
            controller = AdmissionController(PAPER_SYSTEM)
            assert controller.ladder(job) == cached
            assert controller.weight_bytes(job) == \
                build("alexnet", 16).total_weight_bytes()
        assert builds == ["a", "a"]

    def test_configure_cache_drops_the_entry(self, ladder_cache,
                                             monkeypatch):
        job = Job("a", "alexnet", 16)
        rungs = AdmissionController(PAPER_SYSTEM).ladder(job)
        configure_cache()
        builds = count_builds(monkeypatch)
        assert AdmissionController(PAPER_SYSTEM).ladder(job) == rungs
        assert builds == ["a"]

    def test_entry_stays_off_disk(self, ladder_cache, tmp_path):
        cache = configure_cache(disk_dir=str(tmp_path))
        AdmissionController(PAPER_SYSTEM).ladder(Job("a", "alexnet", 16))
        # Four rung simulations on disk; the ladder entry in memory only.
        assert len(cache) == 5
        assert len(list(tmp_path.iterdir())) == 4

    def test_degraded_pcie_gets_its_own_entry(self, ladder_cache,
                                              monkeypatch):
        job = Job("a", "alexnet", 16)
        healthy = AdmissionController(PAPER_SYSTEM).ladder(job)
        degraded = replace(PAPER_SYSTEM, pcie=replace(
            PAPER_SYSTEM.pcie,
            dma_bandwidth=PAPER_SYSTEM.pcie.dma_bandwidth / 4))
        builds = count_builds(monkeypatch)
        slow = AdmissionController(degraded).ladder(job)
        assert builds == ["a"]
        assert slow != healthy
        assert slow[2].pcie_seconds > healthy[2].pcie_seconds
        assert slow == evaluate_ladder(build("alexnet", 16), degraded)
        assert AdmissionController(PAPER_SYSTEM).ladder(job) == healthy
        assert builds == ["a"]

    def test_min_footprint_is_the_ladder_minimum(self, ladder_cache):
        controller = AdmissionController(PAPER_SYSTEM)
        for job in (Job("a", "alexnet", 16), Job("g", "googlenet", 8)):
            # Before and after the ladder is memoized.
            for _ in range(2):
                assert controller.min_footprint(job) == min(
                    r.footprint_bytes for r in controller.ladder(job))

    def test_min_footprint_follows_a_subclass_ladder(self):
        profiles = {"big": [synthetic_rung("base(p)", 9, 1.0, 0.0),
                            synthetic_rung("all(m)", 5, 0.5, 1.0)],
                    "small": [synthetic_rung("base(p)", 2, 1.0, 0.0)]}
        controller = SyntheticController(profiles)
        # Same network and batch, different hand-authored ladders.
        for name, floor in (("big", 5), ("small", 2), ("big", 5)):
            job = Job(name, "alexnet")
            assert controller.min_footprint(job) == floor * MB == min(
                r.footprint_bytes for r in controller.ladder(job))


# ----------------------------------------------------------------------
# Contention model
# ----------------------------------------------------------------------
class TestContention:
    def test_solo_job_runs_at_solo_speed(self):
        rung = synthetic_rung("base(p)", 10, 1.0, 0.0)
        assert ContentionModel().iteration_seconds([rung]) == [1.0]

    def test_compute_time_sliced_across_tenants(self):
        rung = synthetic_rung("base(p)", 10, 1.0, 0.0)
        assert ContentionModel().iteration_seconds([rung, rung]) == [2.0, 2.0]

    def test_pcie_split_only_across_offloaders(self):
        pcie_bound = synthetic_rung("all(m)", 10, 0.1, 1.0)
        compute_bound = synthetic_rung("base(p)", 10, 1.0, 0.0)
        times = ContentionModel().iteration_seconds(
            [pcie_bound, compute_bound]
        )
        # The offloader keeps its full PCIe bandwidth (only one PCIe
        # user); the compute-bound job is time-sliced.
        assert times[0] == 1.0
        assert times[1] == 2.0

    def test_two_offloaders_halve_bandwidth(self):
        rung = synthetic_rung("all(m)", 10, 0.1, 1.0)
        assert ContentionModel().iteration_seconds([rung, rung]) == [2.0, 2.0]

    def test_timeslice_overhead(self):
        rung = synthetic_rung("base(p)", 10, 1.0, 0.0)
        model = ContentionModel(timeslice_overhead=0.1)
        assert model.iteration_seconds([rung, rung]) == \
            [2.0 * 1.1, 2.0 * 1.1]

    def test_negative_overhead_rejected(self):
        with pytest.raises(ValueError):
            ContentionModel(timeslice_overhead=-0.1)


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
class TestPolicies:
    def test_registry(self):
        assert available_policies() == ["best_fit", "fifo", "sjf"]
        with pytest.raises(KeyError):
            make_policy("round_robin")

    def test_fifo_blocks_best_fit_does_not(self):
        assert make_policy("fifo").blocking
        assert make_policy("sjf").blocking
        assert not make_policy("best_fit").blocking


# ----------------------------------------------------------------------
# Scheduler: synthetic workloads (deterministic packing behaviour)
# ----------------------------------------------------------------------
def packing_workload():
    """P is PCIe-bound; X cannot share with P; C can.

    FIFO admits P, then blocks on X, leaving C waiting although it
    fits — serializing the fleet.  Memory-aware best-fit packs C next
    to P, overlapping C's compute with P's PCIe traffic.
    """
    profiles = {
        "P": [synthetic_rung("all(m)", 6, 0.1, 1.0)],
        "X": [synthetic_rung("base(p)", 6, 1.0, 0.0)],
        "C": [synthetic_rung("base(p)", 3, 1.0, 0.0)],
    }
    jobs = [
        Job("P", "alexnet", iterations=100),
        Job("X", "alexnet", iterations=50),
        Job("C", "alexnet", iterations=50),
    ]
    return profiles, jobs


def run_synthetic(policy, profiles, jobs, budget_mb=10):
    scheduler = GPUScheduler(
        policy=policy,
        budget_bytes=budget_mb * MB,
        controller=SyntheticController(profiles),
    )
    scheduler.submit_all(jobs)
    return scheduler.run()


class TestSchedulerSynthetic:
    def test_best_fit_strictly_beats_fifo_when_packing_matters(self):
        profiles, jobs = packing_workload()
        fifo = run_synthetic("fifo", profiles, jobs)
        best = run_synthetic("best_fit", profiles, jobs)
        assert all(r.state is JobState.FINISHED for r in fifo.records)
        assert all(r.state is JobState.FINISHED for r in best.records)
        assert best.aggregate_throughput > fifo.aggregate_throughput
        assert best.makespan < fifo.makespan

    def test_fifo_head_of_line_blocking(self):
        profiles, jobs = packing_workload()
        result = run_synthetic("fifo", profiles, jobs)
        by_name = {r.job.name: r for r in result.records}
        # C fits next to P from t=0 but FIFO keeps it behind X.
        assert by_name["C"].admit_time == by_name["X"].admit_time
        assert by_name["C"].queueing_delay > 0

    def test_best_fit_skips_blocked_job(self):
        profiles, jobs = packing_workload()
        result = run_synthetic("best_fit", profiles, jobs)
        by_name = {r.job.name: r for r in result.records}
        assert by_name["C"].queueing_delay == 0
        assert by_name["X"].queueing_delay > 0

    def test_shared_pool_never_exceeds_budget(self):
        profiles, jobs = packing_workload()
        for policy in available_policies():
            result = run_synthetic(policy, profiles, jobs)
            # Every event-timestamped sample of shared-pool live bytes
            # stays within the budget.
            assert result.usage.curve()
            for _time, live in result.usage.curve():
                assert live <= result.budget_bytes

    def test_job_too_big_for_budget_is_rejected_not_blocking(self):
        profiles, jobs = packing_workload()
        profiles["X"] = [synthetic_rung("base(p)", 64, 1.0, 0.0)]
        result = run_synthetic("fifo", profiles, jobs)
        by_name = {r.job.name: r for r in result.records}
        assert by_name["X"].state is JobState.REJECTED
        assert "budget" in by_name["X"].failure
        assert by_name["P"].state is JobState.FINISHED
        assert by_name["C"].state is JobState.FINISHED

    def test_staggered_arrivals_honoured(self):
        profiles = {
            "A": [synthetic_rung("base(p)", 4, 1.0, 0.0)],
            "B": [synthetic_rung("base(p)", 4, 1.0, 0.0)],
        }
        jobs = [
            Job("A", "alexnet", iterations=10, submit_time=0.0),
            Job("B", "alexnet", iterations=10, submit_time=100.0),
        ]
        result = run_synthetic("fifo", profiles, jobs)
        by_name = {r.job.name: r for r in result.records}
        assert by_name["A"].finish_time == pytest.approx(10.0)
        assert by_name["B"].admit_time == pytest.approx(100.0)
        assert by_name["B"].queueing_delay == pytest.approx(0.0)

    def test_duplicate_job_names_rejected(self):
        scheduler = GPUScheduler(budget_bytes=GB)
        scheduler.submit(Job("same", "alexnet"))
        with pytest.raises(ValueError):
            scheduler.submit(Job("same", "alexnet"))

    def test_nonpositive_budget_rejected(self):
        with pytest.raises(ValueError):
            GPUScheduler(budget_bytes=0)
        with pytest.raises(ValueError):
            GPUScheduler(budget_bytes=-GB)

    def test_deadline_flag(self):
        profiles = {"A": [synthetic_rung("base(p)", 4, 1.0, 0.0)]}
        jobs = [Job("A", "alexnet", iterations=10, deadline=5.0)]
        result = run_synthetic("fifo", profiles, jobs)
        assert result.records[0].deadline_met is False

    def test_timeline_has_one_lane_per_job(self):
        profiles, jobs = packing_workload()
        result = run_synthetic("best_fit", profiles, jobs)
        lanes = {
            job_lane_name(e.stream)
            for e in result.timeline.events
            if job_lane_name(e.stream) is not None
        }
        assert lanes == {"P", "X", "C"}
        run_events = result.timeline.of_kind(EventKind.RUN)
        assert run_events and all(
            e.stream.startswith("job:") for e in run_events
        )


# ----------------------------------------------------------------------
# Scheduler: the real 4-job mixed workload (acceptance criteria)
# ----------------------------------------------------------------------
MIXED_JOBS = [
    ("alexnet", 128, 50),
    ("vgg16", 64, 50),
    ("resnet50", 32, 50),
    ("googlenet", 128, 50),
]


@pytest.fixture(scope="module")
def mixed_results():
    controller = AdmissionController(PAPER_SYSTEM)  # share ladder sims
    jobs = [
        Job(f"{network}#{i}", network, batch, iterations=iters)
        for i, (network, batch, iters) in enumerate(MIXED_JOBS)
    ]
    return {
        policy: schedule_jobs(jobs, system=PAPER_SYSTEM, policy=policy,
                              controller=controller)
        for policy in available_policies()
    }


class TestMixedWorkload:
    def test_all_jobs_finish_on_12gb_titan_x(self, mixed_results):
        for result in mixed_results.values():
            assert result.budget_bytes == 12 * GB
            assert len(result.finished) == 4
            assert not result.rejected

    def test_per_job_metrics_reported(self, mixed_results):
        for result in mixed_results.values():
            for record in result.records:
                assert record.completion_time > 0
                assert record.queueing_delay >= 0
                assert record.rung in LADDER
                assert record.footprint_bytes > 0

    def test_memory_high_water_within_budget(self, mixed_results):
        for result in mixed_results.values():
            assert 0 < result.peak_pool_bytes <= result.budget_bytes
            for _time, live in result.usage.curve():
                assert live <= result.budget_bytes

    def test_degradation_ladder_engaged_under_pressure(self, mixed_results):
        # 4 jobs on 12 GB cannot all take base(p); someone degrades.
        for result in mixed_results.values():
            assert any(r.rung != "base(p)" for r in result.records)

    def test_best_fit_at_least_matches_fifo(self, mixed_results):
        assert mixed_results["best_fit"].aggregate_throughput >= \
            mixed_results["fifo"].aggregate_throughput

    def test_report_renders(self, mixed_results):
        text = schedule_report(mixed_results["best_fit"])
        for fragment in ("vgg16#1", "Fleet metrics", "queue delay",
                         "pool high-water", "JCT"):
            assert fragment in text

    def test_trace_export_one_process_per_job(self, mixed_results):
        result = mixed_results["best_fit"]
        events = timeline_to_trace_events(result.timeline, result.usage)
        lanes = {
            e["args"]["name"] for e in events
            if e["name"] == "process_name" and e["pid"] > 0
        }
        assert lanes == {r.job.name for r in result.records}
        # Counter events for the shared pool ride along on pid 0.
        assert any(e.get("ph") == "C" for e in events)
