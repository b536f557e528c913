"""The event loop and one-pass admission scans against a naive reference.

Both schedulers keep the arrived jobs in queue order, compute contended
rates only when the resident set changes, admit in one pass per event
and skip a queued job found unplaceable until capacity can grow again (a
completion, an eviction or a preemption) or the budget changes; their
fit checks turn a job away when its smallest rung does not fit, and the
fleet's contention model updates its counts by the entries that joined
or left.  ``admission_reference`` keeps the naive loop that scanned
every pending job at every event, re-sorted the queue and started over
after every admission or rejection, walked every rung and counted every
resident's links from scratch; every schedule here must come out the
same under both: per-job records and residency, every timeline lane, the
pool usage curve, fault report, preemptions and GPU-seconds.

The workloads are seeded synthetic ones (hand-made ladders, no network
simulation): single-GPU schedules under every admission policy with
timed budget shrinks and evictions, and 4-GPU fleets of gangs under both
placements with preemption on and off.  Fixed cases pin the rules that
clear the memo (a shrink that makes a waiting job rejectable, an
eviction that lets a waiting job in) and the order among jobs whose
policy keys tie.
"""

import random

import pytest

from admission_reference import reference
from repro.cluster import ClusterJob, FleetScheduler
from repro.faults import FaultSpec
from repro.sched import GPUScheduler, Job, JobState, available_policies
from test_sched import MB, SyntheticController, synthetic_rung

BUDGET_MB = 16
JOBS = 14
SEEDS = range(8)


class _GangController(SyntheticController):
    """Hand-made ladders plus a fixed replica weight for gang allreduce."""

    def weight_bytes(self, job):
        return 64 * MB


def _ladder(rng):
    """One to three rungs, fastest first; the floor may exceed the budget."""
    footprints = sorted(rng.sample(range(1, BUDGET_MB + 3),
                                   rng.randint(1, 3)), reverse=True)
    compute = rng.uniform(0.05, 0.4)
    return [synthetic_rung(f"r{rank}", footprint,
                           compute * (1 + rank), rng.uniform(0.0, 0.5))
            for rank, footprint in enumerate(footprints)]


def _arrivals(rng, count):
    """Poisson arrivals or, on a coin flip, whole seconds with ties."""
    if rng.random() < 0.5:
        return sorted(float(rng.randint(0, 8)) for _ in range(count))
    clock, times = 0.0, []
    for _ in range(count):
        clock += rng.expovariate(1.5)
        times.append(round(clock, 3))
    return times


def _gpu_case(seed):
    rng = random.Random(seed)
    times = _arrivals(rng, JOBS)
    profiles, jobs = {}, []
    for index, submit in enumerate(times):
        name = f"j{index}"
        profiles[name] = _ladder(rng)
        jobs.append(Job(name, "alexnet", iterations=rng.randint(3, 30),
                        priority=rng.randint(0, 2), submit_time=submit))
    horizon = times[-1] + 5.0
    shrinks = tuple(sorted(
        (round(rng.uniform(0.0, horizon), 3), rng.choice((0.5, 0.7, 0.9)))
        for _ in range(2)))
    evictions = tuple(sorted(
        (round(rng.uniform(0.0, horizon), 3), f"j{rng.randrange(JOBS)}")
        for _ in range(3)))
    return profiles, jobs, FaultSpec(budget_shrinks=shrinks,
                                     evictions=evictions)


def _fleet_case(seed):
    rng = random.Random(seed)
    times = _arrivals(rng, JOBS)
    profiles, jobs = {}, []
    for index, submit in enumerate(times):
        name = f"g{index}"
        profiles[name] = _ladder(rng)
        # A 5-wide gang never places on four GPUs: rejected.
        jobs.append(ClusterJob(
            name=name, network="alexnet", iterations=rng.randint(3, 30),
            priority=rng.randint(0, 2), submit_time=submit,
            num_gpus=rng.choice((1, 1, 1, 2, 2, 4, 5))))
    return profiles, jobs


def _run_gpu(policy, profiles, jobs, faults, budget_mb=BUDGET_MB):
    scheduler = GPUScheduler(policy=policy, budget_bytes=budget_mb * MB,
                             controller=SyntheticController(profiles),
                             faults=faults)
    scheduler.submit_all(jobs)
    return scheduler.run()


def _run_fleet(placement, preemption, profiles, jobs):
    scheduler = FleetScheduler(
        topology="pcie-switch", num_gpus=4, placement=placement,
        budget_bytes=BUDGET_MB * MB, controller=_GangController(profiles),
        preemption=preemption)
    scheduler.submit_all(jobs)
    return scheduler.run()


def _records(result):
    return [(r.job.name, r.state, r.rung, r.footprint_bytes, r.admit_time,
             r.finish_time, r.iterations_done, r.evictions, r.requeued_at,
             r.failure, r.residency)
            for r in result.records]


def _same_gpu_schedule(fast, naive):
    assert _records(fast) == _records(naive)
    assert fast.timeline == naive.timeline
    assert fast.usage == naive.usage
    assert fast.budget_timeline == naive.budget_timeline
    assert [e.to_dict() for e in fast.fault_report.events] == \
        [e.to_dict() for e in naive.fault_report.events]
    assert fast.final_pool_live_bytes == naive.final_pool_live_bytes


def _same_fleet_schedule(fast, naive):
    assert _records(fast) == _records(naive)
    assert fast.timeline == naive.timeline
    assert fast.preemptions == naive.preemptions
    assert fast.placements == naive.placements
    assert fast.gpu_seconds == naive.gpu_seconds


@pytest.mark.parametrize("policy", available_policies())
@pytest.mark.parametrize("seed", SEEDS)
def test_gpu_schedule_matches_rescanning_scan(policy, seed):
    profiles, jobs, faults = _gpu_case(seed)
    fast = _run_gpu(policy, profiles, jobs, faults)
    with reference():
        naive = _run_gpu(policy, profiles, jobs, faults)
    _same_gpu_schedule(fast, naive)


@pytest.mark.parametrize("placement", ["bin_pack", "spread"])
@pytest.mark.parametrize("preemption", [True, False])
@pytest.mark.parametrize("seed", SEEDS)
def test_fleet_schedule_matches_rescanning_scan(placement, preemption, seed):
    profiles, jobs = _fleet_case(seed)
    fast = _run_fleet(placement, preemption, profiles, jobs)
    with reference():
        naive = _run_fleet(placement, preemption, profiles, jobs)
    _same_fleet_schedule(fast, naive)


def test_seeded_workloads_reach_every_path():
    """The seeds above reject, evict, degrade on a shrink and preempt."""
    states, evictions, shrink_victims, preemptions = set(), 0, 0, 0
    for seed in SEEDS:
        profiles, jobs, faults = _gpu_case(seed)
        for policy in available_policies():
            result = _run_gpu(policy, profiles, jobs, faults)
            states |= {r.state for r in result.records}
            evictions += sum(r.evictions for r in result.records)
            shrink_victims += sum(
                e.kind == "budget-shrink" and e.outcome == "degraded"
                for e in result.fault_report.events)
        profiles, jobs = _fleet_case(seed)
        preemptions += _run_fleet("bin_pack", True, profiles,
                                  jobs).preemptions
    assert states == {JobState.FINISHED, JobState.REJECTED}
    assert evictions and shrink_victims and preemptions


@pytest.mark.parametrize("policy", ["fifo", "best_fit"])
def test_shrink_makes_waiting_job_rejectable(policy):
    # A holds 3 of 10 MB until t=10; W (8 MB) waits.  The shrink to 6 MB
    # at t=1 evicts nobody, yet W can now never run: it is rejected then,
    # not when A finishes, and FIFO lets C in behind it at once.
    profiles = {"A": [synthetic_rung("r0", 3, 1.0, 0.0)],
                "W": [synthetic_rung("r0", 8, 1.0, 0.0)],
                "C": [synthetic_rung("r0", 2, 1.0, 0.0)]}
    jobs = [Job("A", "alexnet", iterations=10),
            Job("W", "alexnet", iterations=5, submit_time=0.5),
            Job("C", "alexnet", iterations=5, submit_time=0.6)]
    faults = FaultSpec(budget_shrinks=((1.0, 0.6),))
    fast = _run_gpu(policy, profiles, jobs, faults, budget_mb=10)
    with reference():
        naive = _run_gpu(policy, profiles, jobs, faults, budget_mb=10)
    _same_gpu_schedule(fast, naive)
    by_name = {r.job.name: r for r in fast.records}
    assert by_name["W"].state is JobState.REJECTED
    assert by_name["W"].finish_time == 1.0
    assert by_name["C"].admit_time == (1.0 if policy == "fifo" else 0.6)


def test_eviction_lets_waiting_job_in():
    # W waits behind A under SJF; evicting A at t=1 frees the pool, W is
    # now the shorter head and is admitted at once, and A follows when W
    # finishes.
    profiles = {"A": [synthetic_rung("r0", 8, 1.0, 0.0)],
                "W": [synthetic_rung("r0", 6, 1.0, 0.0)]}
    jobs = [Job("A", "alexnet", iterations=20),
            Job("W", "alexnet", iterations=2, submit_time=0.5)]
    faults = FaultSpec(evictions=((1.0, "A"),))
    fast = _run_gpu("sjf", profiles, jobs, faults, budget_mb=10)
    with reference():
        naive = _run_gpu("sjf", profiles, jobs, faults, budget_mb=10)
    _same_gpu_schedule(fast, naive)
    by_name = {r.job.name: r for r in fast.records}
    assert by_name["W"].admit_time == 1.0
    assert by_name["A"].evictions == 1
    assert by_name["A"].admit_time == by_name["W"].finish_time == 3.0
    assert all(r.state is JobState.FINISHED for r in fast.records)


@pytest.mark.parametrize("policy", available_policies())
def test_equal_keys_keep_queue_order(policy):
    # Four jobs with one submit time, footprint, priority and length tie
    # under every policy: they run in submission order, and A, evicted
    # at t=1, re-enters the queue behind all of them.
    profiles = {name: [synthetic_rung("r0", 6, 1.0, 0.0)]
                for name in "ABCD"}
    jobs = [Job(name, "alexnet", iterations=2) for name in "ABCD"]
    faults = FaultSpec(evictions=((1.0, "A"),))
    fast = _run_gpu(policy, profiles, jobs, faults, budget_mb=10)
    with reference():
        naive = _run_gpu(policy, profiles, jobs, faults, budget_mb=10)
    _same_gpu_schedule(fast, naive)
    assert [(r.job.name, r.admit_time, r.finish_time)
            for r in fast.records] == [("A", 7.0, 8.0), ("B", 1.0, 3.0),
                                       ("C", 3.0, 5.0), ("D", 5.0, 7.0)]
