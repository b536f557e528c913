"""End-to-end sanitizer runs over real executor and scheduler output.

The clean half of the contract: every schedule the executor actually
produces must verify with zero findings.  The mutation half: breaking
one safety mechanism (a sync point, the Fig. 10 window bound) must make
the verifier flag the mutant while the untouched schedule stays clean.
"""

import pytest
from conftest import make_fork_join_cnn, make_linear_cnn

from repro.analysis.hb import check_races
from repro.analysis.trace import OpKind
from repro import zoo
from repro.analysis import verify
from repro.analysis.verify import (SWEEP_POLICIES, analyze_trace,
                                   verify_point, verify_result,
                                   verify_schedule, verify_zoo)
from repro.core.algo_config import AlgoConfig
from repro.core.api import Point
from repro.core.executor import (_VDNNSimulation, simulate_baseline,
                                 simulate_vdnn)
from repro.core.policy import TransferPolicy
from repro.sched.job import Job
from repro.sched.scheduler import schedule_jobs


def traced_vdnn(network, system, **kwargs):
    return simulate_vdnn(
        network, system, TransferPolicy.vdnn_all(),
        AlgoConfig.performance_optimal(network), verify=True, **kwargs)


class TestCleanSchedules:
    @pytest.mark.parametrize("policy", ["base", "conv", "all", "dyn"])
    def test_linear_network_verifies_clean(self, system, policy):
        report = verify_point(make_linear_cnn(), policy, "p", system)
        assert report.ok and not report.warnings, report.render_text()

    @pytest.mark.parametrize("policy", ["base", "conv", "all", "dyn"])
    def test_fork_join_network_verifies_clean(self, system, policy):
        report = verify_point(make_fork_join_cnn(), policy, "m", system)
        assert report.ok and not report.warnings, report.render_text()

    def test_untraced_result_is_rejected(self, system, linear_cnn):
        result = simulate_vdnn(linear_cnn, system, TransferPolicy.vdnn_all(),
                               AlgoConfig.performance_optimal(linear_cnn))
        assert result.schedule_trace is None
        with pytest.raises(ValueError, match="no schedule trace"):
            verify_result(result, linear_cnn)

    def test_tracing_does_not_perturb_the_simulation(self, system,
                                                     linear_cnn):
        algos = AlgoConfig.performance_optimal(linear_cnn)
        plain = simulate_vdnn(linear_cnn, system,
                              TransferPolicy.vdnn_all(), algos)
        traced = simulate_vdnn(linear_cnn, system,
                               TransferPolicy.vdnn_all(), algos, verify=True)
        # The timeline gains zero-duration SYNC markers; every simulated
        # quantity must be bit-identical.
        assert traced.total_time == plain.total_time
        assert traced.managed_max_bytes == plain.managed_max_bytes
        assert traced.managed_avg_bytes == plain.managed_avg_bytes
        assert traced.compute_stall_seconds == plain.compute_stall_seconds
        assert traced.offload_bytes == plain.offload_bytes
        assert traced.prefetch_bytes == plain.prefetch_bytes
        assert traced.usage.samples == plain.usage.samples

    def test_baseline_trace_covers_whole_iteration(self, system, linear_cnn):
        result = simulate_baseline(
            linear_cnn, system, AlgoConfig.memory_optimal(linear_cnn),
            verify=True)
        trace = result.schedule_trace
        kernels = trace.of_kind(OpKind.KERNEL)
        # forward + backward kernel per non-input layer
        assert len(kernels) == 2 * (len(linear_cnn) - 1)
        assert verify_result(result, linear_cnn).ok


class TestMutations:
    def test_dropping_offload_sync_flags_hb002(self, system, deep_cnn):
        result = traced_vdnn(deep_cnn, system, sync_after_offload=False)
        report = verify_result(result, deep_cnn, subject="nosync")
        assert any(d.rule == "HB002" for d in report.errors)

    def test_unbounded_prefetch_window_flags_hb004(self, system, deep_cnn):
        result = traced_vdnn(deep_cnn, system,
                             bounded_prefetch_window=False)
        report = verify_result(result, deep_cnn, subject="unbounded")
        # A window violation is a WARNING: eager restore wastes memory
        # but corrupts nothing, exactly Fig. 10's distinction.
        assert report.ok
        assert any(d.rule == "HB004" for d in report.warnings)

    def test_bounded_window_has_no_hb004(self, system, deep_cnn):
        result = traced_vdnn(deep_cnn, system)
        report = verify_result(result, deep_cnn)
        assert not report.by_rule("HB004")

    def test_surgically_removing_one_sync_flags_the_mutant(self, system,
                                                           deep_cnn):
        result = traced_vdnn(deep_cnn, system)
        clean = result.schedule_trace
        assert check_races(clean) == []
        sync_seq = next(op.seq for op in clean.of_kind(OpKind.SYNC)
                        if "offload-sync" in op.label)
        mutant = clean.without(sync_seq)
        findings = check_races(mutant)
        assert any(d.rule in ("HB001", "HB002") for d in findings)

    def test_untouched_trace_stays_clean(self, system, deep_cnn):
        result = traced_vdnn(deep_cnn, system)
        report = analyze_trace(result.schedule_trace, network=deep_cnn,
                               subject="untouched")
        assert report.ok and not report.warnings


class TestZooSweep:
    """Each sweep row shares one network; reports must not notice."""

    NAMES = ["alexnet", "resnet18"]
    BATCH = 4

    def count_builds(self, monkeypatch):
        built = []
        real = zoo.build

        def counting(name, batch_size=None):
            built.append((name, batch_size))
            return real(name, batch_size)

        monkeypatch.setattr(zoo, "build", counting)
        return built

    def count_simulations(self, monkeypatch):
        simulated = []
        real = Point.simulate

        def counting(point, *args, **kwargs):
            simulated.append(point.policy)
            return real(point, *args, **kwargs)

        monkeypatch.setattr(Point, "simulate", counting)
        return simulated

    def test_row_shared_sweep_equals_fresh_network_per_point(
            self, monkeypatch):
        # Rows with repeated schedules: on AlexNet and ResNet-18 joint
        # adopts dyn's offloads and drops nothing; LSTM has no CONV
        # layer, so each m/p pair runs one schedule and dyn and joint
        # offload nothing, as conv does.
        names = self.NAMES + ["lstm"]
        fresh = [verify_point(zoo.build(name, self.BATCH), policy=policy,
                              algo=algo)
                 for name in names for policy, algo in SWEEP_POLICIES]
        built = self.count_builds(monkeypatch)
        simulated = self.count_simulations(monkeypatch)
        shared = verify_zoo(names, batch=self.BATCH, jobs=1)
        assert built == [(name, self.BATCH) for name in names]
        assert len(simulated) == 9 + 9 + 4
        assert shared == fresh

    def test_reused_analysis_carries_each_points_subject(self, monkeypatch):
        # With the end-of-layer offload sync skipped, every offloading
        # point reports HB002; on LSTM all(m) runs all(p)'s schedule and
        # comp(m) comp(p)'s, so half the reports are reused analyses.
        policies = [("all", "m"), ("all", "p"), ("comp", "m"),
                    ("comp", "p")]
        real = _VDNNSimulation.__init__

        def unsynced(sim, *args, **kwargs):
            real(sim, *args, **kwargs)
            sim.sync_after_offload = False

        monkeypatch.setattr(_VDNNSimulation, "__init__", unsynced)
        fresh = [verify_point(zoo.build("lstm", self.BATCH), policy=policy,
                              algo=algo) for policy, algo in policies]
        simulated = self.count_simulations(monkeypatch)
        shared = verify_zoo(["lstm"], batch=self.BATCH, jobs=1,
                            policies=policies)
        assert len(simulated) == 2
        assert shared == fresh
        for report, (policy, algo) in zip(shared, policies):
            assert report.subject == f"LSTM-T8({self.BATCH}) {policy}({algo})"
            assert report.by_rule("HB002") and not report.ok
            assert {d.subject for d in report.diagnostics} \
                == {report.subject}

    def test_worker_pool_equals_serial_sweep(self):
        serial = verify_zoo(self.NAMES, batch=self.BATCH, jobs=1)
        assert verify_zoo(self.NAMES, batch=self.BATCH, jobs=2) == serial

    def test_one_row_runs_serially_whatever_jobs_says(self, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-row sweep opened a process pool")

        serial = verify_zoo(["alexnet"], batch=self.BATCH, jobs=1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        assert verify_zoo(["alexnet"], batch=self.BATCH, jobs=4) == serial

    def test_interleaved_tasks_keep_their_order(self, monkeypatch):
        # Hybrid mode hands over a filtered task list: only consecutive
        # tasks of one network share a build.
        tasks = [("alexnet", self.BATCH, "all", "m"),
                 ("alexnet", self.BATCH, "base", "p"),
                 ("resnet18", self.BATCH, "conv", "p"),
                 ("alexnet", self.BATCH, "dyn", "-")]
        built = self.count_builds(monkeypatch)
        reports = verify._run_tasks(tasks, jobs=1)
        assert [name for name, _batch in built] == [
            "alexnet", "resnet18", "alexnet"]
        assert [r.subject for r in reports] == [
            "AlexNet(4) all(m)", "AlexNet(4) base(p)",
            "ResNet-18(4) conv(p)", "AlexNet(4) dyn"]


class TestMultiTenant:
    def make_result(self):
        jobs = [Job(name=f"j{i}", network="alexnet", iterations=5,
                    submit_time=0.0) for i in range(3)]
        return schedule_jobs(jobs)

    def test_clean_schedule_verifies(self):
        report = verify_schedule(self.make_result())
        assert report.ok, report.render_text()

    def test_leaked_pool_bytes_fire_mt303(self):
        result = self.make_result()
        result.final_pool_live_bytes = 4096
        assert verify_schedule(result).by_rule("MT303")

    def test_budget_excess_fires_mt301(self):
        result = self.make_result()
        # Shrink after the fact: the budget step function is the
        # sanitizer's source of truth.
        result.budget_bytes = 1
        result.budget_timeline = [(0.0, 1)]
        report = verify_schedule(result)
        assert report.by_rule("MT301")

    def test_budget_step_function_judges_each_instant(self):
        result = self.make_result()
        # A shrink timed *after* the last event legalises everything
        # that ran before it; the sanitizer must not apply it
        # retroactively.
        last = max(e.end for e in result.timeline.events)
        result.budget_bytes = 1
        result.budget_timeline = [(0.0, result.peak_pool_bytes),
                                  (last + 1.0, 1)]
        assert verify_schedule(result).ok

    def test_finish_before_admit_fires_mt304(self):
        result = self.make_result()
        record = result.finished[0]
        record.finish_time = record.admit_time - 1.0
        assert verify_schedule(result).by_rule("MT304")

    def test_overlapping_residency_fires_mt302(self):
        result = self.make_result()
        record = result.finished[0]
        (start, end, tenants) = record.residency[0]
        record.residency.append((start, end, tenants))  # duplicate interval
        assert verify_schedule(result).by_rule("MT302")
