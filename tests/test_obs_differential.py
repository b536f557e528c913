"""Differential suite: instrumentation is bit-neutral.

Every simulated quantity — iteration results, timelines, usage curves,
schedule reports, fault reports — must be *byte-identical* whether a
run carries an :class:`repro.obs.Instrumentation` object or not.  The
hooks only read values the simulation already computed; these tests pin
that contract across the whole zoo, every policy, faulted runs, and
multi-tenant schedules.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.alloc import LiveByteCounter
from repro.analysis.trace import OpKind, place_blocks
from repro.cli import DEFAULT_WORKLOAD, main
from repro.core.algo_config import AlgoConfig
from repro.core.api import evaluate, resolve_point
from repro.core.executor import _run_iteration, _VDNNSimulation
from repro.core.joint import JointConfig, JointDecision, \
    simulate_joint_config, trigger_costs
from repro.core.plan import compiled_plan
from repro.core.policy import TransferPolicy
from repro.faults import FaultSpec
from repro.hw import PAPER_SYSTEM
from repro.obs import Instrumentation, NullInstrumentation
from repro.sched import Job, schedule_jobs, schedule_report
from repro.zoo import available, build

from test_properties import random_dag_network
from test_recompute_golden import _placed_ops, _RecordingCounter

POLICIES = ("all", "conv", "dyn", "base", "none")


def _headline_jobs():
    return [Job.parse(spec, index)
            for index, spec in enumerate(DEFAULT_WORKLOAD.split(","))]


def _assert_results_identical(plain, instrumented):
    assert instrumented == plain
    assert instrumented.timeline.events == plain.timeline.events
    assert instrumented.usage.curve() == plain.usage.curve()


def _assert_schedules_identical(plain, instrumented):
    assert schedule_report(instrumented) == schedule_report(plain)
    assert instrumented.timeline.events == plain.timeline.events
    assert instrumented.usage.curve() == plain.usage.curve()
    assert instrumented.budget_timeline == plain.budget_timeline
    assert instrumented.final_pool_live_bytes == plain.final_pool_live_bytes
    assert instrumented.makespan == plain.makespan
    if plain.fault_report is not None:
        assert (instrumented.fault_report.to_json()
                == plain.fault_report.to_json())


# ----------------------------------------------------------------------
# Single-iteration runs: whole zoo x every policy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", available())
def test_zoo_network_bit_neutral(name):
    network = build(name)
    for policy in POLICIES:
        plain = evaluate(network, policy=policy, use_cache=False)
        obs = Instrumentation()
        instrumented = evaluate(network, policy=policy, use_cache=False,
                                obs=obs)
        _assert_results_identical(plain, instrumented)
        # The observer must actually have observed: every vDNN policy
        # moves DMA traffic, the baseline at least samples the pool.
        assert len(obs.registry) > 0


# ----------------------------------------------------------------------
# Faulted runs: results AND FaultReport JSON byte-identical
# ----------------------------------------------------------------------
@pytest.mark.parametrize("spec_str", [
    "dma=0.15",
    "dma=0.05,pcie=0.7,jitter=0.1",
])
@pytest.mark.parametrize("policy", ["all", "conv"])
def test_faulted_run_bit_neutral(spec_str, policy):
    network = build("alexnet", 128)
    spec = FaultSpec.parse(spec_str)
    plain = evaluate(network, policy=policy, faults=spec, fault_seed=7)
    obs = Instrumentation()
    instrumented = evaluate(network, policy=policy, faults=spec,
                            fault_seed=7, obs=obs)
    _assert_results_identical(plain, instrumented)
    assert (instrumented.fault_report.to_json(indent=2)
            == plain.fault_report.to_json(indent=2))


# ----------------------------------------------------------------------
# Multi-tenant schedules: three workloads
# ----------------------------------------------------------------------
def test_schedule_headline_bit_neutral():
    plain = schedule_jobs(_headline_jobs())
    obs = Instrumentation()
    instrumented = schedule_jobs(_headline_jobs(), obs=obs)
    _assert_schedules_identical(plain, instrumented)
    assert len(obs.spans) > 0


def test_schedule_contended_bit_neutral():
    def jobs():
        import dataclasses

        return [dataclasses.replace(job, submit_time=float(index) * 2.0)
                for index, job in enumerate(_headline_jobs())]

    budget = 4 * (1 << 30)
    for policy in ("fifo", "sjf", "best_fit"):
        plain = schedule_jobs(jobs(), policy=policy, budget_bytes=budget)
        obs = Instrumentation()
        instrumented = schedule_jobs(jobs(), policy=policy,
                                     budget_bytes=budget, obs=obs)
        _assert_schedules_identical(plain, instrumented)


def test_schedule_faulted_bit_neutral():
    spec = FaultSpec.parse("shrink@8=0.4,evict@3=vgg16#1")
    plain = schedule_jobs(_headline_jobs(), faults=spec, fault_seed=1)
    obs = Instrumentation()
    instrumented = schedule_jobs(_headline_jobs(), faults=spec,
                                 fault_seed=1, obs=obs)
    _assert_schedules_identical(plain, instrumented)
    # Settled outcomes were mirrored into the fault counter family.
    fault_counters = [m for m in obs.registry.metrics()
                      if m.name == "repro_faults_total"]
    assert sum(int(c.value) for c in fault_counters) \
        == len(plain.fault_report.events)


# ----------------------------------------------------------------------
# Serving: an overload run with every ladder rung and fault family
# ----------------------------------------------------------------------
def test_serve_overload_bit_neutral():
    """The serving golden's burst scenario (real window shrinks, DMA
    failures, a budget shrink, a forced eviction) is identical with
    null and live instrumentation."""
    from repro.serve import simulate_serving
    from test_serve_golden import SCENARIOS

    config = SCENARIOS["burst"]
    plain = simulate_serving(config, obs=NullInstrumentation())
    live = simulate_serving(config, obs=Instrumentation())
    assert live.window_shrinks > 0
    assert live.records == plain.records
    assert live.timeline.events == plain.timeline.events
    for field in ("makespan", "cold_starts", "window_shrinks",
                  "pool_peak_bytes"):
        assert getattr(live, field) == getattr(plain, field), field
    assert plain.obs.registry.get("repro_serve_queue_depth") is None
    assert live.obs.registry.get("repro_serve_queue_depth") is not None


@pytest.mark.parametrize("scenario", ["burst", "pinned"])
def test_serve_leaves_no_deferred_log(scenario):
    """Serving counts its demand stalls and DMA (and, under faults, the
    failed attempts and backoffs) at once: nothing is left in the
    deferred log for export to replay."""
    from repro.serve import simulate_serving
    from test_serve_golden import SCENARIOS

    obs = Instrumentation()
    result = simulate_serving(SCENARIOS[scenario], obs=obs)
    assert obs._pending == []
    assert result.completed > 0
    assert obs.registry.get(
        "repro_pcie_transfers_total", {"direction": "demand"}).value > 0


# ----------------------------------------------------------------------
# The sanitizer stays clean on instrumented runs
# ----------------------------------------------------------------------
def test_sanitizer_clean_on_instrumented_iteration():
    from repro.analysis.verify import verify_result

    network = build("vgg16", 64)
    obs = Instrumentation()
    result = evaluate(network, policy="all", algo="m", verify=True, obs=obs)
    report = verify_result(result, network=network)
    assert report.ok, report.render_text()


def test_sanitizer_clean_on_instrumented_schedule():
    from repro.analysis.verify import verify_schedule

    obs = Instrumentation()
    result = schedule_jobs(_headline_jobs(), obs=obs)
    report = verify_schedule(result)
    assert report.ok, report.render_text()


# ----------------------------------------------------------------------
# The compiled-plan fast path: warm plan-cache runs stay bit-neutral
# ----------------------------------------------------------------------
# ``compiled_plan`` memoizes per-(network, system, algos) plans in a
# weak-keyed cache, so the second simulation of one network object
# takes the warm fast path (no liveness/latency rebuild).  verify=True
# and Instrumentation must perturb nothing on that path either — the
# debug hooks read plan fields instead of recomputing them, and these
# tests pin that a warm instrumented/traced run is event-for-event
# identical to a cold plain one.
def _warm_plan_case():
    from repro.core.algo_config import AlgoConfig
    from repro.core.executor import simulate_vdnn
    from repro.core.plan import compiled_plan
    from repro.core.policy import TransferPolicy
    from repro.hw import PAPER_SYSTEM

    network = build("googlenet", 64)
    algos = AlgoConfig.memory_optimal(network)
    policy = TransferPolicy.vdnn_all()
    cold = simulate_vdnn(network, PAPER_SYSTEM, policy, algos)
    # Same object out of the cache == the fast path is actually taken.
    plan = compiled_plan(network, PAPER_SYSTEM, algos)
    assert compiled_plan(network, PAPER_SYSTEM, algos) is plan
    return network, PAPER_SYSTEM, policy, algos, cold


def test_warm_plan_instrumented_bit_neutral():
    from repro.core.executor import simulate_vdnn

    network, system, policy, algos, cold = _warm_plan_case()
    obs = Instrumentation()
    warm = simulate_vdnn(network, system, policy, algos, obs=obs)
    _assert_results_identical(cold, warm)
    assert len(obs.registry) > 0


def _assert_traced_matches(plain, traced):
    """Traced == plain, modulo the documented SYNC debug markers.

    ``verify=True`` adds zero-duration SYNC events to the timeline (the
    ordering edges the sanitizer checks) — by design, in the legacy
    core too.  Everything *simulated* must still match bit for bit:
    every non-SYNC event, the usage curve, and every summary field.
    """
    from repro.sim.timeline import EventKind

    real = [e for e in traced.timeline.events
            if e.kind is not EventKind.SYNC]
    assert real == plain.timeline.events
    assert traced.usage.curve() == plain.usage.curve()
    for field in dataclasses.fields(plain):
        if field.name not in ("timeline", "usage", "schedule_trace",
                              "fault_report"):
            assert getattr(traced, field.name) \
                == getattr(plain, field.name), field.name


def test_warm_plan_verify_bit_neutral():
    from repro.analysis.verify import verify_result
    from repro.core.executor import simulate_vdnn

    network, system, policy, algos, cold = _warm_plan_case()
    traced = simulate_vdnn(network, system, policy, algos, verify=True)
    _assert_traced_matches(cold, traced)
    assert traced.schedule_trace is not None
    assert len(traced.schedule_trace) > 0
    report = verify_result(traced, network=network)
    assert report.ok, report.render_text()


def test_warm_plan_verify_and_obs_together():
    from repro.core.executor import simulate_vdnn

    network, system, policy, algos, cold = _warm_plan_case()
    obs = Instrumentation()
    both = simulate_vdnn(network, system, policy, algos, verify=True,
                         obs=obs)
    _assert_traced_matches(cold, both)


# ----------------------------------------------------------------------
# Counted vs placed: every walk only counts live bytes, and a traced
# walk's placements are replayed from its trace afterwards
# ----------------------------------------------------------------------
#: The vDNN points of Figures 11/14 whose walk allocates per layer.
COUNTED_POINTS = tuple((policy, algo) for policy in ("all", "conv", "comp")
                       for algo in ("m", "p")) + (("dyn", "p"),)


def _walk(point, **kwargs):
    """One executor walk of a resolved point, and the allocator it used."""
    network, system = point.network, point.system
    sim = _VDNNSimulation(network, system, point.config, point.algos,
                          compiled_plan(network, system, point.algos),
                          **kwargs)
    return _run_iteration(sim), sim.pool


def _exported(obs):
    return [metric.to_dict() for metric in obs.registry.metrics()]


def _assert_walks_agree(point):
    """Plain, traced and observed walks agree; the replay pool's peak is
    the counted peak."""
    plain, counter = _walk(point)
    traced, traced_counter = _walk(point, verify=True)
    observed_obs, both_obs = Instrumentation(), Instrumentation()
    observed, observed_counter = _walk(point, obs=observed_obs)
    both, both_counter = _walk(point, verify=True, obs=both_obs)
    for allocator in (counter, traced_counter, observed_counter,
                      both_counter):
        assert type(allocator) is LiveByteCounter
    _assert_traced_matches(plain, traced)
    _assert_traced_matches(plain, both)
    _assert_results_identical(plain, observed)
    assert _exported(both_obs) == _exported(observed_obs)
    assert observed_obs.registry.get(
        "repro_pool_fragmentation_ratio").value == 0.0
    trace = traced.schedule_trace
    offsets = list(trace.offsets)
    pool = place_blocks(trace)
    assert trace.offsets == offsets
    assert pool.peak_bytes == counter.peak_bytes == plain.managed_max_bytes
    assert pool.live_bytes == counter.live_bytes


@pytest.mark.parametrize("policy,algo", COUNTED_POINTS)
@pytest.mark.parametrize("name", available())
def test_counted_walk_matches_placed_walk(name, policy, algo):
    network = build(name, 4)
    _assert_walks_agree(resolve_point(network, PAPER_SYSTEM, policy, algo))


@settings(max_examples=15, deadline=None)
@given(network=random_dag_network(),
       point=st.sampled_from(COUNTED_POINTS))
def test_counted_walk_matches_placed_walk_on_random_dags(network, point):
    _assert_walks_agree(resolve_point(network, PAPER_SYSTEM, *point))


def _assert_replay_matches_reference(walk):
    """The trace's replayed placements equal the walk's own alloc/free
    sequence placed by handle identity, not by buffer name."""
    counters = []

    def recording_counter():
        counters.append(_RecordingCounter())
        return counters[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.core.executor.LiveByteCounter",
                      recording_counter)
        trace = walk().schedule_trace
    (counter,) = counters
    replayed = []
    for kind, offset, size, nbytes, label in zip(
            trace.kinds, trace.offsets, trace.sizes, trace.nbytes,
            trace.labels):
        if kind is OpKind.ALLOC:
            replayed.append(f"A|{offset}|{size}|{nbytes}|{label}")
        elif kind is OpKind.FREE:
            replayed.append(f"F|{offset}|{size}|{label}")
    assert replayed == _placed_ops(counter.ops)


@pytest.mark.parametrize("policy,algo", (("all", "m"), ("conv", "p"),
                                         ("dyn", "p")))
@pytest.mark.parametrize("name", available())
def test_replayed_offsets_match_reference(name, policy, algo):
    point = resolve_point(build(name, 4), PAPER_SYSTEM, policy, algo)
    _assert_replay_matches_reference(lambda: point.simulate(verify=True))


@settings(max_examples=10, deadline=None)
@given(network=random_dag_network(),
       point=st.sampled_from(COUNTED_POINTS))
def test_replayed_offsets_match_reference_on_random_dags(network, point):
    point = resolve_point(network, PAPER_SYSTEM, *point)
    _assert_replay_matches_reference(lambda: point.simulate(verify=True))


@pytest.mark.parametrize("name,seed", (("alexnet", 3), ("googlenet", 0)))
def test_replayed_offsets_match_reference_under_faults(name, seed):
    # alexnet recovers from its DMA failures; googlenet aborts with its
    # blocks still live.
    point = resolve_point(build(name, 8), PAPER_SYSTEM, "all", "m")
    _assert_replay_matches_reference(lambda: point.simulate(
        verify=True, faults=FaultSpec.parse("dma=0.5,retries=2"),
        fault_seed=seed))


def test_replayed_offsets_match_reference_on_joint_drop_walk():
    network = build("googlenet", 8)
    plan = compiled_plan(network, PAPER_SYSTEM,
                         AlgoConfig.performance_optimal(network))
    triggers = plan.offload_indices(TransferPolicy.vdnn_all(), network)
    costs = trigger_costs(network, plan)
    droppable = frozenset(t for t in triggers
                          if JointDecision.RECOMPUTE in costs[t])
    assert droppable
    config = JointConfig(offload=triggers - droppable, drop=droppable)
    algos = AlgoConfig.memory_optimal(network)
    _assert_replay_matches_reference(lambda: simulate_joint_config(
        network, PAPER_SYSTEM, config, algos, verify=True))


# ----------------------------------------------------------------------
# CLI: --metrics appends an export without touching the report
# ----------------------------------------------------------------------
def test_cli_evaluate_report_unchanged_by_metrics(capsys):
    assert main(["evaluate", "alexnet"]) == 0
    plain = capsys.readouterr().out
    assert main(["evaluate", "alexnet", "--metrics"]) == 0
    with_metrics = capsys.readouterr().out
    assert with_metrics.startswith(plain)
    assert "repro_pcie_bytes_total" in with_metrics


def test_cli_schedule_report_unchanged_by_metrics(capsys):
    assert main(["schedule"]) == 0
    plain = capsys.readouterr().out
    assert main(["schedule", "--metrics"]) == 0
    with_metrics = capsys.readouterr().out
    assert with_metrics.startswith(plain.rstrip("\n"))
    assert "repro_sched_jobs_total" in with_metrics
