"""Differential & mutation wall for compressed DMA and the joint planner.

Four layers of pinning, mirroring the repo's existing walls:

* **Bit-neutral instrumentation** — a ``comp`` or ``joint`` run with an
  :class:`repro.obs.Instrumentation` attached is byte-identical to the
  same run without one.
* **Sanitizer-clean** — every joint schedule (mixed offload + compress
  + drop) replays clean through the race and memory-safety passes, and
  recording the trace does not perturb the simulation.
* **Static/dynamic parity** — every probe of the interpreted joint
  ladder agrees with its simulation (``ladder_reference``), so
  ``plan_joint`` adopts the configuration a simulating ladder adopts,
  and the abstract walk's accounting matches the simulator bit-for-bit
  on every metric the planner decides by.
* **Mutations** — surgically corrupting a known-good artifact (drop a
  rematerialization ALLOC from a traced schedule, overstate a record's
  compression ratio) makes the matching verifier rule fire; the wall
  proves the checkers can actually lose.
"""

import pytest

from repro.analysis.diagnostics import Report
from repro.analysis.safety import check_memory_safety
from ladder_reference import checked_ladder
from repro.analysis.static_plan import (
    audit_compression,
    interpret_joint_plan,
    verify_joint_plan,
)
from repro.analysis.trace import OpKind
from repro.analysis.verify import verify_point, verify_result
from repro.core import AlgoConfig, TransferPolicy, UntrainableError, evaluate
from repro.core.joint import (JointConfig, JointDecision, plan_joint,
                              simulate_joint_config, trigger_costs)
from repro.core.plan import compiled_plan
from repro.hw import PAPER_SYSTEM
from repro.obs import Instrumentation
from repro.zoo import build
from repro.zoo.vgg import build_deep_vgg

GB = 1 << 30

#: Budget-constrained points where the adopted joint plan genuinely
#: mixes strategies (offload + compress + drop), per the frontier bench.
MIXED_POINTS = (("googlenet", 128, 2.0), ("googlenet", 128, 2.6),
                ("resnet50", 32, 1.2))


def _system(budget_gb):
    return PAPER_SYSTEM.with_gpu_memory(int(budget_gb * GB))


def _assert_identical(plain, instrumented):
    assert instrumented == plain
    assert instrumented.timeline.events == plain.timeline.events
    assert instrumented.usage.curve() == plain.usage.curve()


def _phase_labels(obs):
    """Phase span name -> the policy label it carries."""
    return {span.name: span.attrs["policy"]
            for span in obs.spans.on_lane("phase")}


# ----------------------------------------------------------------------
# Instrumentation is bit-neutral for the new policies
# ----------------------------------------------------------------------
class TestObsBitNeutral:
    @pytest.mark.parametrize("algo", ["m", "p"])
    def test_comp_policy_bit_neutral(self, algo):
        network = build("alexnet", 128)
        plain = evaluate(network, policy="comp", algo=algo,
                         use_cache=False)
        obs = Instrumentation()
        instrumented = evaluate(network, policy="comp", algo=algo,
                                use_cache=False, obs=obs)
        _assert_identical(plain, instrumented)
        assert len(obs.registry) > 0

    @pytest.mark.parametrize("name,batch,budget", MIXED_POINTS[:1])
    def test_joint_policy_bit_neutral(self, name, batch, budget):
        network = build(name, batch)
        system = _system(budget)
        plain = evaluate(network, system, policy="joint", use_cache=False)
        obs = Instrumentation()
        instrumented = evaluate(network, system, policy="joint",
                                use_cache=False, obs=obs)
        _assert_identical(plain, instrumented)
        assert len(obs.registry) > 0
        # One label on the walk: the phase spans name the joint point
        # the iteration span names, not its lowered custom policy.
        labels = _phase_labels(obs)
        assert sorted(labels) == ["backward", "forward", "iteration"]
        assert len(set(labels.values())) == 1
        assert labels["iteration"].startswith("joint(")

    def test_mixed_config_bit_neutral(self):
        name, batch, budget = MIXED_POINTS[-1]
        network = build(name, batch)
        system = _system(budget)
        config = plan_joint(network, system, use_cache=False).config
        algos = AlgoConfig.performance_optimal(network)
        plain = simulate_joint_config(network, system, config, algos)
        obs = Instrumentation()
        instrumented = simulate_joint_config(network, system, config,
                                             algos, obs=obs)
        _assert_identical(plain, instrumented)
        assert set(_phase_labels(obs).values()) \
            == {instrumented.policy_label}


# ----------------------------------------------------------------------
# Every mixed schedule replays clean through the sanitizers
# ----------------------------------------------------------------------
class TestSanitizerClean:
    @pytest.mark.parametrize("name,batch,budget", MIXED_POINTS)
    def test_joint_schedule_verifies_clean(self, name, batch, budget):
        network = build(name, batch)
        system = _system(budget)
        plan = plan_joint(network, system, use_cache=False)
        result = simulate_joint_config(network, system, plan.config,
                                       plan.algos, verify=True)
        report = verify_result(result, network,
                               subject=f"{name} {plan.config.describe()}")
        assert report.ok, report.render_text()

    @pytest.mark.parametrize("name,batch,budget", MIXED_POINTS)
    def test_tracing_is_bit_neutral(self, name, batch, budget):
        """verify=True records the schedule without perturbing it."""
        network = build(name, batch)
        system = _system(budget)
        plan = plan_joint(network, system, use_cache=False)
        plain = simulate_joint_config(network, system, plan.config,
                                      plan.algos)
        traced = simulate_joint_config(network, system, plan.config,
                                       plan.algos, verify=True)
        assert traced.schedule_trace is not None
        assert traced.total_time == plain.total_time
        assert traced.managed_max_bytes == plain.managed_max_bytes
        assert traced.offload_bytes == plain.offload_bytes
        assert traced.prefetch_bytes == plain.prefetch_bytes
        assert traced.usage.samples == plain.usage.samples

    @pytest.mark.parametrize("name", ["alexnet", "googlenet"])
    def test_comp_point_verifies_clean(self, name):
        report = verify_point(build(name, 128), policy="comp", algo="p")
        assert report.ok, report.render_text()


# ----------------------------------------------------------------------
# Static/dynamic parity: one brain, two interpreters
# ----------------------------------------------------------------------
class TestStaticDynamicParity:
    @pytest.mark.parametrize("name,batch,budget", MIXED_POINTS
                             + (("alexnet", 64, 12.0),
                                ("vgg16", 64, 8.0)))
    def test_ladders_adopt_identical_configs(self, name, batch, budget):
        # Each probe of the checked ladder is interpreted and simulated,
        # and the two must agree; plan_joint must adopt what it adopts.
        network = build(name, batch)
        system = _system(budget)
        try:
            config, algos, _interp, passes = checked_ladder(
                "joint", network, system)
        except UntrainableError:
            with pytest.raises(UntrainableError):
                plan_joint(network, system, use_cache=False)
            return
        planned = plan_joint(network, system, use_cache=False)
        assert planned.config == config
        assert planned.algos.label == algos.label
        assert planned.passes == passes

    @pytest.mark.parametrize("name,batch,budget", MIXED_POINTS)
    def test_abstract_walk_matches_simulation_bitwise(self, name, batch,
                                                      budget):
        """Peak/offload/prefetch/pinned: interpreter == simulator."""
        network = build(name, batch)
        system = _system(budget)
        jplan = plan_joint(network, system, use_cache=False)
        result = simulate_joint_config(network, system, jplan.config,
                                       jplan.algos)
        plan = compiled_plan(network, system, jplan.algos)
        interp = interpret_joint_plan(network, system, plan, jplan.config)
        assert interp.peak_bytes == result.managed_max_bytes
        assert interp.offload_bytes == result.offload_bytes
        assert interp.prefetch_bytes == result.prefetch_bytes
        assert interp.pinned_peak_bytes == result.pinned_peak_bytes
        assert interp.trainable == result.trainable

    def test_deep_replay_chains_walk_without_recursion(self):
        """The ladder's pass-1b all-recompute probe on VGG-516 replays
        one chain through about 500 dropped storages: both walks finish
        and agree, and the ladder ends in its structured error."""
        network = build_deep_vgg(516, 4)
        fastest = compiled_plan(network, PAPER_SYSTEM,
                                AlgoConfig.performance_optimal(network))
        triggers = fastest.offload_indices(TransferPolicy.vdnn_all(),
                                           network)
        costs = trigger_costs(network, fastest)
        droppable = frozenset(t for t in triggers
                              if JointDecision.RECOMPUTE in costs[t])
        config = JointConfig(offload=triggers - droppable, drop=droppable)
        algos = AlgoConfig.memory_optimal(network)
        interp = interpret_joint_plan(
            network, PAPER_SYSTEM,
            compiled_plan(network, PAPER_SYSTEM, algos), config)
        result = simulate_joint_config(network, PAPER_SYSTEM, config, algos,
                                       verify=True)
        assert interp.peak_bytes == result.managed_max_bytes
        with pytest.raises(UntrainableError, match="all-recompute"):
            evaluate(build_deep_vgg(516, 32), policy="joint")

    @pytest.mark.parametrize("name,batch,budget", MIXED_POINTS)
    def test_verify_joint_plan_is_clean(self, name, batch, budget):
        network = build(name, batch)
        system = _system(budget)
        jplan = plan_joint(network, system, use_cache=False)
        report = verify_joint_plan(network, system, jplan.config,
                                   jplan.algos)
        assert report.ok, report.render_text()
        assert not report.diagnostics


# ----------------------------------------------------------------------
# Mutations: prove the checkers can lose
# ----------------------------------------------------------------------
class TestMutations:
    def _traced_mixed_run(self):
        name, batch, budget = MIXED_POINTS[0]
        network = build(name, batch)
        system = _system(budget)
        plan = plan_joint(network, system, use_cache=False)
        assert plan.config.drop, "point must exercise rematerialization"
        result = simulate_joint_config(network, system, plan.config,
                                       plan.algos, verify=True)
        return result.schedule_trace

    def test_dropping_remat_alloc_fires_ms101_once(self):
        """Remove one rematerialization ALLOC: every backward read of
        that storage is now a use-after-release, flagged exactly once
        per buffer, and its now-unpaired release is a double free."""
        trace = self._traced_mixed_run()
        assert check_memory_safety(trace) == []
        remat = next(op for op in trace.of_kind(OpKind.ALLOC)
                     if "(re)" in op.label)
        mutant = trace.without(remat.seq)
        findings = check_memory_safety(mutant)
        rules = [d.rule for d in findings]
        assert rules.count("MS101") == 1
        mine = [d for d in findings if remat.buffer in d.message]
        assert any(d.rule == "MS101" for d in mine)

    def test_dropping_the_input_batch_fires_sp405(self):
        """A drop set reaching the INPUT batch: its replay would run no
        kernel, so the walk reports SP405 instead of certifying it."""
        network = build("alexnet", 64)
        plan = compiled_plan(network, PAPER_SYSTEM,
                             AlgoConfig.memory_optimal(network))
        trigger = next(step.index for step in plan.forward
                       if any(rec.owner in plan.input_owners
                              for rec in step.offload_candidates))
        report = Report(subject="drop input")
        interpret_joint_plan(network, PAPER_SYSTEM, plan,
                             JointConfig(drop=frozenset({trigger})),
                             report=report)
        assert [d.rule for d in report.diagnostics] == ["SP405"]

    def test_overstating_compression_fires_sp407(self):
        """A plan claiming a better wire ratio than the engine model
        would silently split static and simulated PCIe accounting —
        the audit catches the drift before anything runs."""
        network = build("alexnet", 128)
        algos = AlgoConfig.memory_optimal(network)
        plan = compiled_plan(network, PAPER_SYSTEM, algos)
        clean = Report(subject="clean")
        audit_compression(network, PAPER_SYSTEM, plan, clean)
        assert clean.ok and not clean.diagnostics
        rec = next(r for r in plan.records.values()
                   if r.nbytes > 1 and r.comp_nbytes < r.nbytes)
        rec.comp_nbytes //= 2
        tampered = Report(subject="tampered")
        audit_compression(network, PAPER_SYSTEM, plan, tampered)
        assert any(d.rule == "SP407" for d in tampered.diagnostics)

    def test_wire_size_escaping_bounds_fires_sp407(self):
        network = build("alexnet", 128)
        algos = AlgoConfig.memory_optimal(network)
        plan = compiled_plan(network, PAPER_SYSTEM, algos)
        rec = next(r for r in plan.records.values() if r.nbytes > 0)
        rec.comp_nbytes = rec.nbytes + 1  # "compression" that grows
        report = Report(subject="oversize")
        audit_compression(network, PAPER_SYSTEM, plan, report)
        assert any(d.rule == "SP407" for d in report.diagnostics)

    def test_infeasible_config_fires_sp401(self):
        """Keep-everything under a tight budget: the static walk must
        report the over-budget step instead of quietly passing."""
        name, batch, budget = MIXED_POINTS[0]
        network = build(name, batch)
        system = _system(budget)
        report = verify_joint_plan(
            network, system, JointConfig(),
            AlgoConfig.memory_optimal(network))
        assert any(d.rule == "SP401" for d in report.diagnostics)
