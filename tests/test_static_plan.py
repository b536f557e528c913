"""The static plan verifier: differential proofs and SP4xx fixtures.

Three layers of evidence that ``repro verify --static``, and the
interpreted vDNN_dyn ladder, are sound:

* **bit-equality** — on clean plans the abstract walk reproduces the
  simulator's accounting exactly (peak == ``managed_max_bytes``, same
  offload/prefetch/pinned bytes, same trainability verdict);
* **differential parity** — static-clean implies dynamic-clean, and
  each ablation that fires HB00x/MS10x dynamically fires the
  corresponding SP4xx statically (same finding counts where the rules
  are one-to-one twins), and every probe of the vDNN_dyn ladder
  interprets as it simulates (``ladder_reference``), on zoo points and
  random fork/join graphs;
* **known-bad fixtures** — one per SP4xx rule, each firing exactly
  once, including the release-list corruption the mutation test
  demands.

Corrupted plans are always built with the ``CompiledPlan`` constructor
directly — never via :func:`repro.core.plan.compiled_plan` — so the
process-wide plan cache is never poisoned for other tests.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_deep_cnn, make_fork_join_cnn, make_linear_cnn
from ladder_reference import checked_ladder, simulated_ladder
from repro.analysis.static_plan import (
    audit_plan,
    interpret_joint_plan,
    interpret_plan,
    verify_compiled_plan,
    verify_plan,
    verify_point_static,
    verify_recompute_plan,
    verify_service_plan,
    verify_zoo_static,
)
from repro.analysis.diagnostics import Report, Severity
from repro.analysis.trace import OpKind
from repro.analysis.verify import (SWEEP_POLICIES, analyze_trace,
                                   verify_point, verify_zoo)
from repro.core.algo_config import AlgoConfig
from repro.core.dynamic import UntrainableError, plan_dynamic
from repro.core.executor import _VDNNSimulation, simulate_vdnn
from repro.core.joint import (JointConfig, JointDecision, plan_joint,
                              simulate_joint_config, trigger_costs)
from repro.core.liveness import LivenessAnalysis
from repro.core.plan import CompiledPlan, compiled_plan
from repro.core.policy import TransferPolicy
from repro.core.recompute import CheckpointPlan, checkpoint_plan
from repro.graph import LayerKind
from repro.hw import PAPER_SYSTEM
from repro.serve.layering import RESIDENCY_POLICIES, plan_service
from repro.zoo import build
from test_properties import random_dag_network


def rules(report):
    return sorted(d.rule for d in report.diagnostics)


def algos_for(network):
    return AlgoConfig.performance_optimal(network)


def fresh_plan(network, algos=None):
    """A private plan safe to corrupt (bypasses the compiled_plan cache)."""
    return CompiledPlan(network, PAPER_SYSTEM, algos or algos_for(network))


def release_moved_earlier(network):
    """A fresh plan whose first feature release past the second backward
    step runs two steps early: a use-after-free the audit flags."""
    plan = fresh_plan(network)
    steps = list(plan.backward)
    for position, step in enumerate(steps):
        features = [r for r in step.releases if not r[1]]
        if features and position >= 2:
            step.releases = tuple(
                r for r in step.releases if r != features[0])
            steps[position - 2].releases = \
                steps[position - 2].releases + (features[0],)
            return plan
    raise AssertionError("no movable feature release")


def dynamic_report(network, plan, policy, algos, **flags):
    """Run the real simulator over a (possibly corrupted) plan, traced."""
    sim = _VDNNSimulation(network, PAPER_SYSTEM, policy, algos, plan,
                          verify=True, **flags)
    sim.allocate_persistent()
    sim.run_forward()
    sim.run_backward()
    return analyze_trace(sim.trace, network=network,
                         liveness=LivenessAnalysis(network))


def tiny_gpu(memory_bytes):
    return dataclasses.replace(
        PAPER_SYSTEM,
        gpu=dataclasses.replace(PAPER_SYSTEM.gpu,
                                memory_bytes=memory_bytes))


# ----------------------------------------------------------------------
# Bit-equality: the walk reproduces the simulator's accounting exactly
# ----------------------------------------------------------------------
class TestBitEquality:
    NETWORKS = [make_linear_cnn, make_fork_join_cnn, make_deep_cnn]
    POLICIES = [TransferPolicy.vdnn_all, TransferPolicy.vdnn_conv,
                TransferPolicy.none]

    @pytest.mark.parametrize("make_net", NETWORKS)
    @pytest.mark.parametrize("make_policy", POLICIES)
    def test_toy_networks_match_simulation(self, make_net, make_policy):
        network = make_net()
        algos = algos_for(network)
        policy = make_policy()
        plan = compiled_plan(network, PAPER_SYSTEM, algos)
        interp = interpret_plan(network, PAPER_SYSTEM, plan, policy)
        result = simulate_vdnn(network, PAPER_SYSTEM, policy, algos,
                               verify=True)
        assert interp.peak_bytes == result.managed_max_bytes
        assert interp.offload_bytes == result.offload_bytes
        assert interp.prefetch_bytes == result.prefetch_bytes
        assert interp.pinned_peak_bytes == result.pinned_peak_bytes
        assert interp.max_usage_bytes == result.max_usage_bytes
        assert interp.trainable == result.trainable

    def test_zoo_network_matches_simulation(self):
        network = build("alexnet")
        algos = algos_for(network)
        policy = TransferPolicy.vdnn_all()
        plan = compiled_plan(network, PAPER_SYSTEM, algos)
        interp = interpret_plan(network, PAPER_SYSTEM, plan, policy)
        result = simulate_vdnn(network, PAPER_SYSTEM, policy, algos,
                               verify=True)
        assert interp.peak_bytes == result.managed_max_bytes
        assert interp.offload_bytes == result.offload_bytes
        assert interp.prefetch_bytes == result.prefetch_bytes
        assert interp.pinned_peak_bytes == result.pinned_peak_bytes
        assert interp.trainable == result.trainable


# ----------------------------------------------------------------------
# Differential harness: static-clean implies dynamic-clean
# ----------------------------------------------------------------------
class TestStaticImpliesDynamic:
    @pytest.mark.parametrize("make_net", [make_linear_cnn, make_deep_cnn,
                                          make_fork_join_cnn])
    def test_toy_networks(self, make_net):
        network = make_net()
        algos = algos_for(network)
        policy = TransferPolicy.vdnn_all()
        static = verify_plan(network, PAPER_SYSTEM, policy, algos)
        assert static.ok, static.render_text()
        result = simulate_vdnn(network, PAPER_SYSTEM, policy, algos,
                               verify=True)
        dynamic = analyze_trace(result.schedule_trace, network=network,
                                liveness=LivenessAnalysis(network))
        assert dynamic.ok, dynamic.render_text()

    @pytest.mark.parametrize("policy,algo", [
        ("all", "p"), ("conv", "m"), ("base", "p"), ("dyn", "-"),
    ])
    def test_zoo_point_parity(self, policy, algo):
        network = build("alexnet")
        static = verify_point_static(network, policy=policy, algo=algo)
        assert static.ok, static.render_text()
        dynamic = verify_point(network, policy=policy, algo=algo)
        assert dynamic.ok, dynamic.render_text()
        # Subjects pair up so the sweeps zip together point for point.
        assert static.subject == dynamic.subject

    @pytest.mark.parametrize("name,batch,budget_gib", [
        ("alexnet", None, 12.0),    # pass 2 fits: 2 probes
        ("vgg16", 64, 4.0),         # greedy vDNN_conv: 15 probes
        ("vgg16", 128, 8.0),        # greedy: 6 probes
        ("googlenet", 128, 2.0),    # pass 2b all(p): 4 probes
        ("resnet50", 32, 1.2),
        ("vgg16", 64, 3.0),         # untrainable: both sides raise
    ])
    def test_dyn_ladder_adopts_identical_configuration(self, name, batch,
                                                       budget_gib):
        # The checked ladder holds every probe's interpretation to its
        # simulation; plan_dynamic must adopt what it adopts, with the
        # adopted point simulated exactly as the probe simulated it.
        network = build(name, batch)
        system = PAPER_SYSTEM.with_gpu_memory(int(budget_gib * (1 << 30)))
        try:
            policy, algos, _interp, probes = checked_ladder(
                "dyn", network, system)
        except UntrainableError:
            with pytest.raises(UntrainableError):
                plan_dynamic(network, system)
            return
        plan = plan_dynamic(network, system)
        assert plan.policy == policy
        assert plan.algos.label == algos.label
        assert plan.passes == probes
        assert plan.result == simulated_ladder("dyn", network, system)[2]

    @pytest.mark.parametrize("kind,planner", [
        ("dyn", plan_dynamic), ("joint", plan_joint),
    ], ids=["plan_dynamic", "plan_joint"])
    def test_pinned_abort_is_not_reported_over_budget(self, kind, planner):
        # 687,194 pinned bytes: the feasibility probe's peak fits the
        # 12 GiB device, but its offloads exhaust pinned host memory.
        host = dataclasses.replace(PAPER_SYSTEM.host,
                                   max_pinned_fraction=1e-5)
        system = dataclasses.replace(PAPER_SYSTEM, host=host)
        network = build("alexnet", 32)
        with pytest.raises(UntrainableError) as simulated_error:
            simulated_ladder(kind, network, system, use_cache=False)
        # The checking probe asserts the interpreter aborts exactly
        # where the simulated walk ran out of pinned memory.
        with pytest.raises(UntrainableError) as checked_error:
            checked_ladder(kind, network, system)
        with pytest.raises(UntrainableError) as planned_error:
            planner(network, system, use_cache=False)
        message = str(simulated_error.value)
        assert "ran out of pinned host memory" in message
        assert f"> {system.gpu.memory_bytes}" not in message
        assert str(checked_error.value) == message
        assert str(planned_error.value) == message


@st.composite
def _dag_and_budget(draw):
    """A random fork/join network and a budget between its interpreted
    vDNN_all(m) and no-offload(p) peaks.  Half the draws land exactly
    on a probe's peak (those two, vDNN_conv(p), vDNN_all(p)), where
    uniform draws seldom fall, so every ladder pass is reachable."""
    network = draw(random_dag_network())
    fastest = AlgoConfig.performance_optimal(network)

    def peak(policy, algos):
        plan = compiled_plan(network, PAPER_SYSTEM, algos)
        return interpret_plan(network, PAPER_SYSTEM, plan,
                              policy).max_usage_bytes

    floor = peak(TransferPolicy.vdnn_all(),
                 AlgoConfig.memory_optimal(network))
    ceiling = peak(TransferPolicy.none(), fastest)
    marks = [floor, ceiling] + [
        mark for mark in (peak(TransferPolicy.vdnn_conv(), fastest),
                          peak(TransferPolicy.vdnn_all(), fastest))
        if floor <= mark <= ceiling]
    budget = draw(st.one_of(st.integers(floor, ceiling),
                            st.sampled_from(marks)))
    return network, PAPER_SYSTEM.with_gpu_memory(budget)


@settings(max_examples=25, deadline=None)
@given(point=_dag_and_budget())
def test_ladder_probes_match_simulation_on_random_dags(point):
    """Every probe both ladders issue interprets as it simulates."""
    network, system = point
    for kind in ("dyn", "joint"):
        try:
            checked_ladder(kind, network, system)
        except UntrainableError:
            pass


#: The default schedule and each of its three ablations.
SCHEDULE_FLAGS = ({}, {"bounded_prefetch_window": False},
                  {"sync_after_offload": False},
                  {"sync_after_prefetch": False})


@settings(max_examples=40, deadline=None)
@given(network=random_dag_network())
def test_walks_agree_with_each_schedule_flag_off_on_random_dags(network):
    """The executor and the interpreter walk every policy the same way,
    whichever schedule flag is off."""
    policies = (TransferPolicy.none(), TransferPolicy.vdnn_all(),
                TransferPolicy.vdnn_conv(), TransferPolicy.vdnn_comp())
    for algos in (AlgoConfig.memory_optimal(network),
                  AlgoConfig.performance_optimal(network)):
        plan = compiled_plan(network, PAPER_SYSTEM, algos)
        for policy in policies:
            for flags in SCHEDULE_FLAGS:
                interp = interpret_plan(network, PAPER_SYSTEM, plan, policy,
                                        **flags)
                result = simulate_vdnn(network, PAPER_SYSTEM, policy,
                                       algos, **flags)
                assert interp.peak_bytes == result.managed_max_bytes
                assert interp.offload_bytes == result.offload_bytes
                assert interp.prefetch_bytes == result.prefetch_bytes
                assert interp.pinned_peak_bytes == result.pinned_peak_bytes
                assert interp.trainable == result.trainable


# ----------------------------------------------------------------------
# Mutation parity: each unsafe ablation fires twin rules in both worlds
# ----------------------------------------------------------------------
class TestMutationParity:
    """The three executor ablations, statically and dynamically.

    Where the rules are one-to-one twins the finding *counts* match
    too: one SP402 per unsafely-freed offload == one HB002 per
    racing transfer, one SP403 error per unsynced prefetch read ==
    one HB003, one SP403 window warning == one HB004.
    """

    def run_pair(self, network, **flags):
        algos = algos_for(network)
        policy = TransferPolicy.vdnn_all()
        static = verify_plan(network, PAPER_SYSTEM, policy, algos, **flags)
        result = simulate_vdnn(network, PAPER_SYSTEM, policy, algos,
                               verify=True, **flags)
        dynamic = analyze_trace(result.schedule_trace, network=network,
                                liveness=LivenessAnalysis(network))
        return static, dynamic

    @pytest.mark.parametrize("make_net", [make_linear_cnn, make_deep_cnn])
    def test_missing_offload_sync_fires_sp402_and_hb002(self, make_net):
        static, dynamic = self.run_pair(make_net(),
                                        sync_after_offload=False)
        sp402 = static.by_rule("SP402")
        hb002 = dynamic.by_rule("HB002")
        assert sp402 and not static.ok and not dynamic.ok
        assert len(sp402) == len(hb002)
        assert dynamic.by_rule("MS104")  # free during in-flight transfer

    @pytest.mark.parametrize("make_net", [make_linear_cnn, make_deep_cnn])
    def test_missing_prefetch_sync_fires_sp403_and_hb003(self, make_net):
        static, dynamic = self.run_pair(make_net(),
                                        sync_after_prefetch=False)
        sp403 = static.by_rule("SP403")
        assert sp403 and not static.ok and not dynamic.ok
        assert all(d.severity is Severity.ERROR for d in sp403)
        assert len(sp403) == len(dynamic.by_rule("HB003"))
        assert dynamic.by_rule("HB001")

    @pytest.mark.parametrize("make_net", [make_linear_cnn, make_deep_cnn,
                                          make_fork_join_cnn])
    def test_unbounded_window_fires_sp403_and_hb004_warnings(self, make_net):
        static, dynamic = self.run_pair(make_net(),
                                        bounded_prefetch_window=False)
        sp403 = static.by_rule("SP403")
        hb004 = dynamic.by_rule("HB004")
        assert sp403 and len(sp403) == len(hb004)
        assert all(d.severity is Severity.WARNING for d in sp403)
        # Warnings, not errors: both reports still pass the gate.
        assert static.ok and dynamic.ok

    @pytest.mark.parametrize("name,policy", [("alexnet", "all"),
                                             ("resnet18", "conv")])
    def test_window_warnings_name_the_lowest_violating_conv(self, name,
                                                            policy):
        """Both window checks visit CONV ids only; each warning still
        names the lowest violating CONV, as a scan of every layer in
        the window does.  Most of these windows hold several."""
        network = build(name, 8)
        algos = algos_for(network)
        transfer = getattr(TransferPolicy, f"vdnn_{policy}")()
        static = verify_plan(network, PAPER_SYSTEM, transfer, algos,
                             bounded_prefetch_window=False)
        result = simulate_vdnn(network, PAPER_SYSTEM, transfer, algos,
                               verify=True, bounded_prefetch_window=False)
        dynamic = analyze_trace(result.schedule_trace, network=network,
                                liveness=LivenessAnalysis(network))
        trace = result.schedule_trace
        triggers = {op.target_layer for op in trace.of_kind(OpKind.OFFLOAD)}
        expected, prefetched = [], set()
        for op in trace.of_kind(OpKind.PREFETCH):
            target, issue = op.target_layer, op.layer_index
            for between in range(target + 1, issue):
                if network[between].kind is LayerKind.CONV and (
                        between not in triggers or between in prefetched):
                    expected.append(
                        f"prefetch of layer {target}'s X during backward "
                        f"of layer {issue} skips past CONV layer {between} "
                        f"({network[between].name}): outside the Fig. 10 "
                        f"search window")
                    break
            prefetched.add(target)
        assert len(expected) > 1
        assert [d.message for d in dynamic.by_rule("HB004")] == expected
        assert [d.message for d in static.by_rule("SP403")] == expected

    def test_moved_dead_release_fires_sp402_and_ms105(self):
        # resnet18's Y22 becomes dead at forward step 26; releasing it
        # three steps early frees a buffer step 26 still reads.
        network = build("resnet18")
        algos = algos_for(network)
        plan = fresh_plan(network, algos)
        steps = {step.index: step for step in plan.forward}
        record = next(d for d in steps[26].dead_releases if d.owner == 22)
        steps[26].dead_releases = tuple(
            d for d in steps[26].dead_releases if d.owner != 22)
        steps[24].dead_releases = steps[24].dead_releases + (record,)

        policy = TransferPolicy.vdnn_conv()
        static = verify_compiled_plan(network, PAPER_SYSTEM, plan, policy)
        assert rules(static) == ["SP402"]
        dynamic = dynamic_report(network, plan, policy, algos)
        assert dynamic.by_rule("MS101") and dynamic.by_rule("MS105")


# ----------------------------------------------------------------------
# Known-bad fixtures: one per rule, firing exactly once
# ----------------------------------------------------------------------
class TestKnownBadFixtures:
    def test_sp401_over_budget_fires_once_as_warning(self):
        network = make_deep_cnn()
        report = verify_plan(network, tiny_gpu(1 << 16),
                             TransferPolicy.none(), algos_for(network))
        assert rules(report) == ["SP401"]
        (finding,) = report.diagnostics
        assert finding.severity is Severity.WARNING
        # Over-budget means untrainable, not unsafe: the gate passes.
        assert report.ok
        assert "first over-budget allocation" in finding.message

    def test_sp402_moved_dead_release_fires_once(self):
        network = build("resnet18")
        plan = fresh_plan(network)
        steps = {step.index: step for step in plan.forward}
        record = next(d for d in steps[26].dead_releases if d.owner == 22)
        steps[26].dead_releases = tuple(
            d for d in steps[26].dead_releases if d.owner != 22)
        steps[24].dead_releases = steps[24].dead_releases + (record,)
        report = verify_compiled_plan(network, PAPER_SYSTEM, plan,
                                      TransferPolicy.vdnn_conv())
        assert rules(report) == ["SP402"]

    def test_sp403_single_unsynced_prefetch_fires_once(self):
        # Offload exactly one layer, then drop the prefetch sync: the
        # one asynchronous restore is read unsynced — one SP403.
        network = make_deep_cnn()
        convs = [n.index for n in network if n.kind.name == "CONV"]
        report = verify_plan(network, PAPER_SYSTEM,
                             TransferPolicy.custom([convs[1]]),
                             algos_for(network),
                             sync_after_prefetch=False)
        assert rules(report) == ["SP403"]
        assert report.diagnostics[0].severity is Severity.ERROR

    def test_sp404_dropped_release_list_entry_fires_once(self):
        """The ISSUE's mutation test: corrupt a CompiledPlan release
        list and assert SP404 catches the leak."""
        network = make_deep_cnn()
        algos = algos_for(network)
        plan = fresh_plan(network, algos)
        victim = None
        for step in plan.backward:
            features = [r for r in step.releases if not r[1]]
            if features:
                victim = features[0]
                step.releases = tuple(
                    r for r in step.releases if r != victim)
                break
        assert victim is not None
        report = verify_compiled_plan(network, PAPER_SYSTEM, plan,
                                      TransferPolicy.vdnn_all())
        assert rules(report) == ["SP404"]
        assert "never freed" in report.diagnostics[0].message
        # The dynamic passes do NOT see this defect (the trace ends
        # with an end-sweep that mops the leak up): static-only catch.
        dynamic = dynamic_report(network, plan, TransferPolicy.vdnn_all(),
                                 algos)
        assert dynamic.ok

    def test_sp404_release_moved_earlier_is_use_after_free(self):
        # Freeing Y before its last backward consumer: the simulator
        # would crash outright on this plan — the static audit names
        # the defect without running anything.
        network = make_deep_cnn()
        plan = release_moved_earlier(network)
        report = verify_compiled_plan(network, PAPER_SYSTEM, plan,
                                      TransferPolicy.vdnn_all())
        assert rules(report) == ["SP404"]
        assert "use-after-free" in report.diagnostics[0].message
        # The walks' own findings (no audit): a joint point that drops
        # nothing must report the plain walk's use-after-free, not
        # replay the freed buffer and end in a static leak.
        policy = TransferPolicy.vdnn_all()
        triggers = plan.offload_indices(policy, network)
        plain, joint = Report(subject="plain"), Report(subject="joint")
        interpret_plan(network, PAPER_SYSTEM, plan, policy, report=plain)
        interpret_joint_plan(network, PAPER_SYSTEM, plan,
                             JointConfig(offload=triggers), report=joint)
        assert any(d.message.startswith("bwd ")
                   and "use-after-free" in d.message
                   for d in plain.diagnostics)
        assert [d.message for d in joint.diagnostics] \
            == [d.message for d in plain.diagnostics]

    def test_sp405_checkpoint_overlap_fires_once(self):
        network = make_deep_cnn()
        plan = checkpoint_plan(network, LivenessAnalysis(network), None)
        stray = sorted(plan.dropped)[0]
        bad = CheckpointPlan(checkpoints=plan.checkpoints | {stray},
                             dropped=plan.dropped,
                             droppable_order=plan.droppable_order)
        report = verify_recompute_plan(network, plan=bad)
        assert rules(report) == ["SP405"]
        assert "both checkpointed and dropped" in \
            report.diagnostics[0].message

    def test_sp406_broken_service_identity_fires_once(self):
        network = build("alexnet")
        algos = algos_for(network)
        plan = plan_service(network, PAPER_SYSTEM, algos,
                            residency="layered")
        bad = dataclasses.replace(
            plan, service_seconds=plan.service_seconds + 0.5)
        report = verify_service_plan(network, PAPER_SYSTEM, algos, bad)
        assert rules(report) == ["SP406"]


# ----------------------------------------------------------------------
# Structural audit specifics
# ----------------------------------------------------------------------
class TestAuditPlan:
    def test_clean_plan_flags_nothing(self):
        network = make_deep_cnn()
        report = Report(subject="audit")
        flagged = audit_plan(network, fresh_plan(network), report)
        assert flagged == set() and report.diagnostics == []

    def test_audit_and_walk_never_double_report(self):
        # One corrupted owner must yield exactly one finding even
        # though both the audit and the walk can see the defect.
        network = make_deep_cnn()
        plan = fresh_plan(network)
        victim = None
        for step in plan.backward:
            features = [r for r in step.releases if not r[1]]
            if features:
                victim = features[0]
                step.releases = tuple(
                    r for r in step.releases if r != victim)
                break
        report = verify_compiled_plan(network, PAPER_SYSTEM, plan,
                                      TransferPolicy.vdnn_all())
        owner_mentions = [d for d in report.diagnostics
                          if f"Y{victim[0]}" in d.message]
        assert len(owner_mentions) == 1


# ----------------------------------------------------------------------
# Walk and audit memos: each plan is proved once, never served stale
# ----------------------------------------------------------------------
def _messages(report):
    return [d.message for d in report.diagnostics]


class TestProofMemos:
    def test_flagged_clean_walk_never_serves_an_unflagged_caller(self):
        # With the audit's flagged owners skipped the walk of this plan
        # is clean, so it is memoized; a caller that flags nothing must
        # still see the walk's own use-after-free.
        network = make_deep_cnn()
        plan = release_moved_earlier(network)
        policy = TransferPolicy.vdnn_all()
        config = JointConfig(offload=plan.offload_indices(policy, network))
        flagged = frozenset(audit_plan(network, plan, Report()))
        assert flagged
        walks = [
            lambda **kw: interpret_plan(network, PAPER_SYSTEM, plan,
                                        policy, **kw),
            lambda **kw: interpret_joint_plan(network, PAPER_SYSTEM, plan,
                                              config, **kw),
        ]
        for walk in walks:
            masked = Report(subject="masked")
            walk(report=masked, flagged=flagged)
            assert masked.diagnostics == []
        # A joint config that drops nothing runs its policy's schedule:
        # both walks share one memo entry.
        assert len(plan.walk_memo) == 1
        for walk in walks:
            unflagged = Report(subject="unflagged")
            walk(report=unflagged)
            assert any("use-after-free" in message
                       for message in _messages(unflagged))

    @pytest.mark.parametrize("joint", [False, True], ids=["plain", "joint"])
    def test_corrupted_plan_reports_on_every_walk(self, joint):
        network = make_deep_cnn()
        plan = release_moved_earlier(network)
        policy = TransferPolicy.vdnn_all()
        config = JointConfig(offload=plan.offload_indices(policy, network))

        def walk(report=None):
            if joint:
                return interpret_joint_plan(network, PAPER_SYSTEM, plan,
                                            config, report=report)
            return interpret_plan(network, PAPER_SYSTEM, plan, policy,
                                  report=report)

        reports = [Report(subject="repeat") for _ in range(3)]
        results = []
        for report in reports:
            results.append(walk())
            results.append(walk(report))
        first = _messages(reports[0])
        assert first and all(_messages(r) == first for r in reports)
        assert all(dataclasses.replace(r, subject="")
                   == dataclasses.replace(results[0], subject="")
                   for r in results)
        assert plan.walk_memo == {}
        # The ledger neither: the audit's finding repeats, too.
        texts = {verify_compiled_plan(network, PAPER_SYSTEM, plan,
                                      policy).render_text()
                 for _ in range(2)}
        assert len(texts) == 1 and "use-after-free" in texts.pop()
        assert plan.audit_memo == set()

    def test_overlay_walk_after_base_walk_matches_simulation(self):
        # An overlay shares its base's records and unchanged steps but
        # not its proofs: its workspace peaks differ.
        network = build("alexnet", 16)
        policy = TransferPolicy.vdnn_all()
        fastest = AlgoConfig.performance_optimal(network)
        smallest = AlgoConfig.memory_optimal(network)
        base = compiled_plan(network, PAPER_SYSTEM, fastest)
        assert verify_compiled_plan(network, PAPER_SYSTEM, base,
                                    policy).diagnostics == []
        base_peak = interpret_plan(network, PAPER_SYSTEM, base,
                                   policy).peak_bytes
        assert base.walk_memo and base.audit_memo
        overlay = compiled_plan(network, PAPER_SYSTEM, smallest)
        assert overlay is not base and overlay.records is base.records
        assert overlay.walk_memo == {} and overlay.audit_memo == set()
        interp = interpret_plan(network, PAPER_SYSTEM, overlay, policy)
        result = simulate_vdnn(network, PAPER_SYSTEM, policy, smallest)
        assert interp.peak_bytes == result.managed_max_bytes
        assert interp.peak_bytes != base_peak

    @pytest.mark.parametrize("name,batch,gib", [
        ("alexnet", None, None),
        ("googlenet", None, None),
        ("resnet18", None, 1.0),    # over budget: SP401 from the walks
        ("vgg16", 64, 4.0),
    ])
    def test_shared_plans_report_as_unshared_plans(self, name, batch, gib):
        # A sweep row shares one network, hence its plans, ladder walks
        # and audits, across its ten points; building the network afresh
        # for every point shares nothing between them.
        system = PAPER_SYSTEM if gib is None \
            else PAPER_SYSTEM.with_gpu_memory(int(gib * (1 << 30)))
        shared = verify_zoo_static(names=[name], batch=batch, system=system)
        unshared = [verify_point_static(build(name, batch), policy=policy,
                                        algo=algo, system=system)
                    for policy, algo in SWEEP_POLICIES]
        assert [r.render_text() for r in shared] \
            == [r.render_text() for r in unshared]


class TestScheduleKey:
    """``CompiledPlan.schedule_key`` keeps apart every lever a walk reads.

    Each test names two points that must not share a schedule, shows
    their keys differ, and walks the first before the second on one
    plan: the second walk, which a key missing that lever would serve
    from the first's memo entry, must still be its own.
    """

    def test_compressed_subset_tells_all_from_comp(self):
        network = build("alexnet", 16)
        algos = AlgoConfig.memory_optimal(network)
        plan = compiled_plan(network, PAPER_SYSTEM, algos)
        plain, comp = TransferPolicy.vdnn_all(), TransferPolicy.vdnn_comp()
        key = plan.schedule_key(network, PAPER_SYSTEM, plain)
        comp_key = plan.schedule_key(network, PAPER_SYSTEM, comp)
        assert key.triggers == comp_key.triggers and comp_key.compressed
        assert key != comp_key
        interpret_plan(network, PAPER_SYSTEM, plan, plain)
        interp = interpret_plan(network, PAPER_SYSTEM, plan, comp)
        result = simulate_vdnn(network, PAPER_SYSTEM, comp, algos)
        assert interp.offload_bytes == result.offload_bytes \
            < result.offload_raw_bytes

    def test_drop_set_tells_a_joint_config_from_its_offload_twin(self):
        network = build("alexnet", 16)
        algos = AlgoConfig.performance_optimal(network)
        plan = compiled_plan(network, PAPER_SYSTEM, algos)
        triggers = plan.offload_indices(TransferPolicy.vdnn_all(), network)
        costs = trigger_costs(network, plan)
        drop = frozenset(t for t in triggers
                         if JointDecision.RECOMPUTE in costs[t])
        assert drop
        offload = JointConfig(offload=triggers)
        dropping = JointConfig(offload=triggers - drop, drop=drop)
        # One policy, two schedules: only the drop set differs.
        assert offload.policy() == dropping.policy()
        key = plan.schedule_key(network, PAPER_SYSTEM, offload.policy())
        drop_key = plan.schedule_key(network, PAPER_SYSTEM,
                                     dropping.policy(), drop=drop)
        assert key != drop_key
        interpret_plan(network, PAPER_SYSTEM, plan, offload.policy())
        interp = interpret_joint_plan(network, PAPER_SYSTEM, plan, dropping)
        result = simulate_joint_config(network, PAPER_SYSTEM, dropping,
                                       algos)
        assert interp.peak_bytes == result.managed_max_bytes
        assert interp.offload_bytes == result.offload_bytes

    def test_plan_tells_conv_m_from_conv_p(self):
        network = build("alexnet", 16)
        policy = TransferPolicy.vdnn_conv()
        plans = [compiled_plan(network, PAPER_SYSTEM, algos(network))
                 for algos in (AlgoConfig.memory_optimal,
                               AlgoConfig.performance_optimal)]
        keys = [plan.schedule_key(network, PAPER_SYSTEM, policy)
                for plan in plans]
        assert keys[0][1:] == keys[1][1:] and keys[0] != keys[1]

    @pytest.mark.parametrize("flag,rule", [
        ("sync_after_offload", "SP402"),
        ("sync_after_prefetch", "SP403"),
        ("bounded_prefetch_window", "SP403"),
    ])
    def test_flags_tell_an_ablation_from_the_default_walk(self, flag, rule):
        network = make_deep_cnn()
        plan = compiled_plan(network, PAPER_SYSTEM, algos_for(network))
        policy = TransferPolicy.vdnn_all()
        assert plan.schedule_key(network, PAPER_SYSTEM, policy) \
            != plan.schedule_key(network, PAPER_SYSTEM, policy,
                                 **{flag: False})
        clean = Report(subject="default")
        interpret_plan(network, PAPER_SYSTEM, plan, policy, report=clean)
        assert clean.diagnostics == [] and plan.walk_memo
        ablated = Report(subject="ablated")
        interpret_plan(network, PAPER_SYSTEM, plan, policy, report=ablated,
                       **{flag: False})
        assert ablated.by_rule(rule)

    def test_system_tells_gpu_capacities_apart(self):
        network = build("alexnet", 128)
        algos = AlgoConfig.performance_optimal(network)
        plan = compiled_plan(network, PAPER_SYSTEM, algos)
        small = PAPER_SYSTEM.with_gpu_memory(256 << 20)
        policy = TransferPolicy.vdnn_all()
        assert plan.schedule_key(network, PAPER_SYSTEM, policy) \
            != plan.schedule_key(network, small, policy)
        assert interpret_plan(network, PAPER_SYSTEM, plan, policy).trainable
        assert not interpret_plan(network, small, plan, policy).trainable

    def test_baseline_is_no_vdnn_walk(self):
        # On a network without CONV layers vDNN_conv offloads nothing,
        # yet it still walks layer-wise allocation, unlike the baseline.
        network = build("lstm", 4)
        plan = compiled_plan(network, PAPER_SYSTEM, algos_for(network))
        conv = plan.schedule_key(network, PAPER_SYSTEM,
                                 TransferPolicy.vdnn_conv())
        base = plan.schedule_key(network, PAPER_SYSTEM, None)
        assert conv.triggers == frozenset() and base.triggers is None
        assert conv != base


# ----------------------------------------------------------------------
# SP405: recompute plans
# ----------------------------------------------------------------------
class TestRecomputeVerifier:
    @pytest.mark.parametrize("make_net", [make_linear_cnn, make_deep_cnn,
                                          make_fork_join_cnn])
    def test_generated_plans_are_clean(self, make_net):
        report = verify_recompute_plan(make_net())
        assert report.ok and report.diagnostics == []

    def test_zoo_plan_is_clean(self):
        report = verify_recompute_plan(build("alexnet"), segment_count=4)
        assert report.ok and report.diagnostics == []

    def test_input_protection_ablation(self):
        # Force the first droppable storage (whose only producer is the
        # input batch) into the dropped set.  With the executor's
        # input-protection guard modelled (keep_input=True) the segment
        # regenerates from the protected input; without it, every
        # replay in that segment bottoms out at freed state.
        network = make_deep_cnn()
        plan = checkpoint_plan(network, LivenessAnalysis(network), None)
        first = plan.droppable_order[0]
        forced = CheckpointPlan(checkpoints=plan.checkpoints - {first},
                                dropped=plan.dropped | {first},
                                droppable_order=plan.droppable_order)
        assert verify_recompute_plan(network, plan=forced,
                                     keep_input=True).ok
        broken = verify_recompute_plan(network, plan=forced,
                                       keep_input=False)
        assert not broken.ok
        assert all(d.rule == "SP405" for d in broken.diagnostics)


# ----------------------------------------------------------------------
# SP406: serve plans
# ----------------------------------------------------------------------
class TestServicePlanVerifier:
    @pytest.mark.parametrize("residency", RESIDENCY_POLICIES)
    def test_planned_services_are_clean(self, residency):
        network = build("alexnet")
        algos = algos_for(network)
        extra = {"pinned_bytes": 32 << 20} if residency == "pinned" else {}
        plan = plan_service(network, PAPER_SYSTEM, algos,
                            residency=residency, **extra)
        report = verify_service_plan(network, PAPER_SYSTEM, algos, plan)
        assert report.ok and report.diagnostics == [], report.render_text()


# ----------------------------------------------------------------------
# Sweep drivers: no simulation executes, hybrid skips clean points
# ----------------------------------------------------------------------
class TestSweepDrivers:
    @pytest.fixture
    def no_simulation(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("a simulation ran during a static sweep")

        for module in ("repro.core.executor", "repro.core.api"):
            monkeypatch.setattr(f"{module}.simulate_vdnn", boom)
            monkeypatch.setattr(f"{module}.simulate_baseline", boom)

    def test_static_sweep_runs_no_simulation(self, no_simulation):
        reports = verify_zoo_static(names=["alexnet", "overfeat"])
        assert len(reports) == 20
        assert all(report.ok for report in reports)

    def test_hybrid_skips_simulation_for_clean_points(self, no_simulation):
        # alexnet is fully static-clean, so hybrid mode has nothing
        # left to re-verify dynamically — the patched simulators stay
        # untouched.
        reports = verify_zoo(names=["alexnet"], mode="hybrid")
        assert len(reports) == 10
        assert all(report.ok for report in reports)

    def test_unknown_mode_is_rejected(self):
        with pytest.raises(ValueError, match="unknown verify mode"):
            verify_zoo(names=["alexnet"], mode="psychic")

    def test_static_subjects_match_dynamic_grid(self):
        static = verify_zoo_static(names=["alexnet"])
        name = build("alexnet").name
        assert [r.subject for r in static] == [
            f"{name} base(m)", f"{name} base(p)",
            f"{name} conv(m)", f"{name} conv(p)",
            f"{name} all(m)", f"{name} all(p)",
            f"{name} comp(m)", f"{name} comp(p)",
            f"{name} dyn",
            f"{name} joint",
        ]
