"""Tests for the cluster subsystem: topologies, contention, fleet.

The acceptance scenario lives in ``TestDataParallelContention``: a
4-GPU data-parallel job on the PCIe-switch tree is measurably slower
than four independent single-GPU runs (ring allreduce and vDNN
offload/prefetch DMA share the switch links), the NVLink ring recovers
most of the gap, runs replay deterministically per seed, and every
worker's schedule is sanitizer-clean.
"""

import random

import pytest

from repro.cluster import (
    ClusterJob,
    FleetContention,
    FleetScheduler,
    PlacedGang,
    cluster_report,
    schedule_fleet,
    simulate_cluster_iteration,
    stagger_arrivals,
    topology_table,
    worker_results,
)
from repro.hw import make_topology, nvlink_ring, pcie_switch_tree
from repro.sched import JobState
from repro.sched.admission import RungEval

#: The acceptance gang: the zoo's PCIe-bound headline network, whose
#: ``all(m)`` rung moves more DMA time than compute time.
NETWORK, BATCH, GANG = "resnet50", 32, 4


def _rung(iter_s=1.0, comp=0.8, pcie_s=0.5, pcie_bytes=1 << 30,
          foot=1 << 30, label="all(m)"):
    return RungEval(rung=label, footprint_bytes=foot, iter_seconds=iter_s,
                    compute_seconds=comp, pcie_seconds=pcie_s,
                    pcie_bytes=pcie_bytes)


class TestClusterJob:
    def test_parse_full_spec(self):
        job = ClusterJob.parse("vgg16:64:200:4", 3)
        assert job.name == "vgg16#3"
        assert (job.batch_size, job.iterations, job.num_gpus) == (64, 200, 4)
        assert job.global_batch == 256

    def test_parse_defaults_to_single_gpu(self):
        job = ClusterJob.parse("alexnet:128", 0)
        assert job.num_gpus == 1

    def test_parse_rejects_bad_gang(self):
        with pytest.raises(ValueError, match="gpus must be integers"):
            ClusterJob.parse("alexnet:8:5:two", 0)

    def test_zero_gpus_rejected(self):
        with pytest.raises(ValueError, match="at least one GPU"):
            ClusterJob(name="j", network="alexnet", num_gpus=0)

    @pytest.mark.parametrize("field", ["submit_time", "deadline"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ClusterJob(name="j", network="alexnet", num_gpus=2,
                       **{field: value})

    def test_global_batch_needs_explicit_batch(self):
        job = ClusterJob(name="j", network="alexnet", num_gpus=2)
        with pytest.raises(ValueError, match="explicit"):
            job.global_batch


class TestPlacedGang:
    def test_ring_hop_bytes_formula(self):
        gang = PlacedGang("j", (0, 1, 2, 3), _rung(),
                          weight_bytes=1000)
        # 2*(n-1)/n * W with n=4: 1500 bytes per directed ring edge.
        assert gang.ring_hop_bytes == 1500

    def test_solo_job_has_no_allreduce(self):
        gang = PlacedGang("j", (2,), _rung(), weight_bytes=1000)
        assert gang.ring_hop_bytes == 0

    def test_duplicate_gpu_rejected(self):
        with pytest.raises(ValueError, match="one GPU"):
            PlacedGang("j", (1, 1), _rung())


class TestFleetContention:
    def test_dma_aggregates_on_shared_uplink(self):
        topo = pcie_switch_tree(num_gpus=4, gpus_per_switch=4)
        model = FleetContention(topo)
        gang = PlacedGang("j", (0, 1, 2, 3),
                          _rung(pcie_bytes=100, foot=1), weight_bytes=0)
        loads = model.entry_link_bytes(gang)
        uplink = topo.dma_path(0)[-1]
        assert loads[uplink] == 400  # four workers' DMA on one uplink

    def test_allreduce_crosses_uplinks_between_switches(self):
        topo = pcie_switch_tree(num_gpus=4, gpus_per_switch=2)
        model = FleetContention(topo)
        gang = PlacedGang("j", (0, 1, 2, 3),
                          _rung(pcie_bytes=0), weight_bytes=1000)
        loads = model.entry_link_bytes(gang)
        # Ring edges 1-2 and 3-0 cross both uplinks: gradient traffic
        # lands on the very links vDNN DMA uses.
        hop = gang.ring_hop_bytes
        for switch in range(2):
            uplink = topo.dma_path(2 * switch)[-1]
            assert loads[uplink] == 2 * hop

    def test_nvlink_ring_keeps_classes_disjoint(self):
        topo = nvlink_ring(4)
        model = FleetContention(topo)
        gang = PlacedGang("j", (0, 1, 2, 3),
                          _rung(pcie_bytes=100), weight_bytes=1000)
        loads = model.entry_link_bytes(gang)
        for gpu in range(4):
            host = topo.dma_path(gpu)[0]
            assert loads[host] == 100  # own DMA only, no allreduce

    def test_link_users_multiply_between_entries(self):
        topo = pcie_switch_tree(num_gpus=2, gpus_per_switch=2)
        model = FleetContention(topo)
        # Two single-GPU tenants whose DMA shares the uplink: each pays
        # its own transfer x2 users, so both slow down symmetrically.
        big = 64 * (1 << 30)
        a = PlacedGang("a", (0,), _rung(pcie_bytes=big, foot=1))
        b = PlacedGang("b", (1,), _rung(pcie_bytes=big, foot=1))
        solo = model.iteration_seconds([a])[0]
        both = model.iteration_seconds([a, b])
        assert both[0] == pytest.approx(both[1])
        assert both[0] > solo

    def test_compute_timeslices_per_gpu_tenancy(self):
        topo = nvlink_ring(2)
        model = FleetContention(topo)
        a = PlacedGang("a", (0,), _rung(pcie_s=0.0, pcie_bytes=0))
        b = PlacedGang("b", (0,), _rung(pcie_s=0.0, pcie_bytes=0))
        lone = PlacedGang("c", (1,), _rung(pcie_s=0.0, pcie_bytes=0))
        times = model.iteration_seconds([a, b, lone])
        assert times[0] == pytest.approx(times[1])
        assert times[0] > times[2]  # co-tenants timeslice, loner does not

    @staticmethod
    def _reference_seconds(model, entries):
        """Contended times straight from ``entry_link_bytes``, every
        link's DMA time derived afresh (no per-placement memo)."""
        per_entry = [model.entry_link_bytes(e) for e in entries]
        users, tenants = {}, {}
        for entry in entries:
            for gpu in entry.gpus:
                tenants[gpu] = tenants.get(gpu, 0) + 1
        for loads in per_entry:
            for link in loads:
                users[link] = users.get(link, 0) + 1
        times = []
        for entry, loads in zip(entries, per_entry):
            gang_tenants = max(tenants[gpu] for gpu in entry.gpus)
            overhead = 1.0 + model.timeslice_overhead * max(
                gang_tenants - 1, 0)
            link_time = 0.0
            for link, nbytes in loads.items():
                hop = model.topology.links[link].dma_time(nbytes)
                link_time = max(link_time, hop * users[link])
            times.append(max(
                entry.rung.iter_seconds,
                entry.rung.compute_seconds * gang_tenants * overhead,
                link_time))
        return times

    @pytest.mark.parametrize("topology", ["pcie-switch", "nvlink-ring",
                                          "nvlink-mesh"])
    def test_memoized_link_times_equal_reference_on_random_placements(
            self, topology):
        rng = random.Random(f"contention-{topology}")
        topo = make_topology(topology, 8)
        model = FleetContention(topo, timeslice_overhead=0.05)
        pool = []
        for index in range(24):
            size = rng.choice((1, 1, 2, 4, 8))
            rung = _rung(iter_s=rng.uniform(0.01, 1.0),
                         comp=rng.uniform(0.01, 1.0),
                         pcie_bytes=rng.choice((0, 1 << 20, 3 << 28,
                                                5 << 30)))
            pool.append(PlacedGang(
                f"j{index}", tuple(rng.sample(range(8), size)), rung,
                weight_bytes=rng.choice((0, 61 << 20, 548 << 20))))
        for _ in range(40):
            # Every call reuses memoized placements from earlier ones.
            entries = rng.sample(pool, rng.randint(1, 10))
            assert model.iteration_seconds(entries) \
                == self._reference_seconds(model, entries)


class TestDataParallelContention:
    """The PR's acceptance criteria, as assertions."""

    def test_pcie_switch_contention_is_measurable(self):
        topo = make_topology("pcie-switch", GANG)
        report = simulate_cluster_iteration(NETWORK, BATCH, GANG, topo)
        # Slower than 4 independent single-GPU runs: the allreduce and
        # all four workers' offload/prefetch DMA share the switch tree.
        assert report.iter_seconds > report.solo_iter_seconds * 1.5
        assert report.scaling_efficiency < 0.75
        assert report.allreduce_bytes > 0
        assert report.offload_bytes > 0

    def test_nvlink_recovers_most_of_the_gap(self):
        pcie = simulate_cluster_iteration(
            NETWORK, BATCH, GANG, make_topology("pcie-switch", GANG))
        ring = simulate_cluster_iteration(
            NETWORK, BATCH, GANG, make_topology("nvlink-ring", GANG))
        assert ring.scaling_efficiency >= 0.9
        assert ring.scaling_efficiency > 2 * pcie.scaling_efficiency

    def test_deterministic_replay(self):
        topo = make_topology("pcie-switch", GANG)
        a = simulate_cluster_iteration(NETWORK, BATCH, GANG, topo)
        b = simulate_cluster_iteration(NETWORK, BATCH, GANG, topo)
        assert a == b

    def test_every_worker_trace_is_sanitizer_clean(self):
        topo = make_topology("pcie-switch", GANG)
        reports = worker_results(NETWORK, BATCH, GANG, topo)
        assert len(reports) == GANG
        assert all(report.ok for report in reports)

    def test_hybrid_rung_is_skipped_not_passed(self):
        topo = make_topology("nvlink-ring", 2)
        reports = worker_results("alexnet", 8, 2, topo, rung="hybrid")
        assert all("skipped" in report.subject for report in reports)

    def test_gang_wider_than_topology_rejected(self):
        topo = make_topology("pcie-switch", 2)
        with pytest.raises(ValueError, match="cannot place"):
            simulate_cluster_iteration(NETWORK, BATCH, 4, topo)

    def test_topology_table_renders(self):
        reports = [simulate_cluster_iteration(
            NETWORK, BATCH, GANG, make_topology(name, GANG))
            for name in ("pcie-switch", "nvlink-ring")]
        table = topology_table(reports)
        assert "pcie-switch" in table and "nvlink-ring" in table


class TestStaggerArrivals:
    def test_deterministic_per_seed(self):
        jobs = [ClusterJob.parse("alexnet:8:5", i) for i in range(4)]
        a = stagger_arrivals(jobs, rate=2.0, seed=11)
        b = stagger_arrivals(jobs, rate=2.0, seed=11)
        c = stagger_arrivals(jobs, rate=2.0, seed=12)
        assert [j.submit_time for j in a] == [j.submit_time for j in b]
        assert [j.submit_time for j in a] != [j.submit_time for j in c]

    def test_arrivals_strictly_increase(self):
        jobs = [ClusterJob.parse("alexnet:8:5", i) for i in range(4)]
        times = [j.submit_time for j in stagger_arrivals(jobs, 2.0, 3)]
        assert times == sorted(times) and times[0] > 0

    def test_zero_rate_is_identity(self):
        jobs = [ClusterJob.parse("alexnet:8:5", 0)]
        assert stagger_arrivals(jobs, 0.0) == jobs


class TestFleetScheduler:
    def test_gang_admission_is_all_or_nothing(self):
        # A 4-GPU gang on a 2-GPU cluster can never place: rejected,
        # while the single-GPU job beside it still runs.
        jobs = [ClusterJob.parse("alexnet:8:5:4", 0),
                ClusterJob.parse("alexnet:8:5", 1)]
        result = schedule_fleet(jobs, topology="nvlink-ring", num_gpus=2)
        by_name = {r.job.name: r for r in result.records}
        assert by_name["alexnet#0"].state is JobState.REJECTED
        assert by_name["alexnet#1"].state is JobState.FINISHED

    def test_gang_replicas_never_share_a_gpu(self):
        jobs = [ClusterJob.parse("alexnet:8:5:3", 0)]
        result = schedule_fleet(jobs, topology="nvlink-mesh", num_gpus=4)
        gpus = result.placements["alexnet#0"]
        assert len(gpus) == len(set(gpus)) == 3

    def test_bin_pack_colocates_and_spread_separates(self):
        jobs = [ClusterJob.parse("alexnet:8:5", i) for i in range(2)]
        packed = schedule_fleet(jobs, topology="nvlink-ring", num_gpus=4,
                                placement="bin_pack")
        spread = schedule_fleet(jobs, topology="nvlink-ring", num_gpus=4,
                                placement="spread")
        packed_gpus = {g for gs in packed.placements.values() for g in gs}
        spread_gpus = {g for gs in spread.placements.values() for g in gs}
        assert len(packed_gpus) == 1   # both tenants on one GPU
        assert len(spread_gpus) == 2   # one GPU each

    def test_priority_preempts_and_migrates(self):
        # Four low-priority tenants fill a 2-GPU cluster at base(p)
        # (alexnet:128 base footprint ~1.8 GB; budget fits exactly two
        # per GPU), then a high-priority gang needs both GPUs cleared.
        low = [ClusterJob(name=f"low{i}", network="alexnet",
                          batch_size=128, iterations=400)
               for i in range(4)]
        high = ClusterJob(name="high", network="alexnet", batch_size=128,
                          iterations=5, priority=5, num_gpus=2,
                          submit_time=1.0)
        budget = 4 * (1 << 30)
        result = schedule_fleet(low + [high], topology="nvlink-ring",
                                num_gpus=2, budget_bytes=budget)
        assert result.preemptions > 0
        by_name = {r.job.name: r for r in result.records}
        assert by_name["high"].state is JobState.FINISHED
        # Victims recover: progress preserved, re-admitted, finished.
        assert all(by_name[f"low{i}"].state is JobState.FINISHED
                   for i in range(4))
        assert sum(by_name[f"low{i}"].evictions for i in range(4)) > 0

    def test_no_preempt_flag_blocks_instead(self):
        low = [ClusterJob(name=f"low{i}", network="alexnet",
                          batch_size=128, iterations=50)
               for i in range(4)]
        high = ClusterJob(name="high", network="alexnet", batch_size=128,
                          iterations=5, priority=5, num_gpus=2,
                          submit_time=1.0)
        result = schedule_fleet(low + [high], topology="nvlink-ring",
                                num_gpus=2, budget_bytes=4 * (1 << 30),
                                preemption=False)
        assert result.preemptions == 0
        assert all(r.state is JobState.FINISHED for r in result.records)
        by_name = {r.job.name: r for r in result.records}
        assert by_name["high"].queueing_delay > 0  # waited, not preempted

    def test_unplaceable_job_rejected_with_reason(self):
        # vgg16:256's smallest rung (~12.7 GB) exceeds a 2 GiB budget.
        jobs = [ClusterJob.parse("vgg16:256:5", 0)]
        result = schedule_fleet(jobs, topology="nvlink-ring", num_gpus=2,
                                budget_bytes=2 * (1 << 30))
        record = result.records[0]
        assert record.state is JobState.REJECTED
        assert "bytes free" in record.failure

    def test_run_is_deterministic_per_seed(self):
        jobs = [ClusterJob.parse("alexnet:8:5:2", 0),
                ClusterJob.parse("alexnet:8:5", 1),
                ClusterJob.parse("googlenet:8:5", 2)]
        runs = [schedule_fleet(jobs, topology="pcie-switch", num_gpus=4,
                               arrival_rate=1.0, seed=9)
                for _ in range(2)]
        assert runs[0].completion_times == runs[1].completion_times
        assert runs[0].placements == runs[1].placements
        assert runs[0].makespan == runs[1].makespan

    def test_fleet_metrics_are_bounded(self):
        jobs = [ClusterJob.parse("alexnet:8:5:2", 0),
                ClusterJob.parse("alexnet:8:5", 1)]
        result = schedule_fleet(jobs, topology="nvlink-ring", num_gpus=2)
        assert 0.0 < result.fleet_utilization <= 1.0
        assert 0.0 < result.fairness <= 1.0
        assert result.aggregate_throughput > 0
        assert len(result.completion_times) == 2

    def test_duplicate_job_names_rejected(self):
        scheduler = FleetScheduler(topology="nvlink-ring", num_gpus=2)
        scheduler.submit(ClusterJob.parse("alexnet:8:5", 0))
        with pytest.raises(ValueError, match="duplicate"):
            scheduler.submit(ClusterJob.parse("alexnet:8:5", 0))

    def test_report_renders_gang_placements(self):
        jobs = [ClusterJob.parse("alexnet:8:5:2", 0)]
        result = schedule_fleet(jobs, topology="nvlink-ring", num_gpus=2)
        text = cluster_report(result)
        assert "gpu[0,1]" in text
        assert "Fleet metrics" in text

    def test_obs_fleet_summary_recorded(self):
        from repro.obs import Instrumentation

        obs = Instrumentation()
        jobs = [ClusterJob.parse("alexnet:8:5", 0)]
        schedule_fleet(jobs, topology="nvlink-ring", num_gpus=2, obs=obs)
        util = obs.registry.get("repro_fleet_utilization", ())
        fair = obs.registry.get("repro_fleet_fairness_jain", ())
        gpus = obs.registry.get("repro_fleet_gpus", ())
        assert 0.0 < util.value <= 1.0
        assert 0.0 < fair.value <= 1.0
        assert gpus.value == 2
