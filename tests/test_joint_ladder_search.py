"""The joint ladder's pass-3 search and the greedy downgrade order.

Pass 3 of :func:`repro.core.joint.run_joint_ladder` bisects each
drop-free segment of its greedy flip chain for the first prefix that
fits.  Three layers of evidence that this adopts exactly what probing
every prefix in order did:

* **linear oracle** — the ladder with the linear pass 3
  (``ladder_reference.linear_joint_ladder``) adopts the same
  ``JointConfig``, algorithm label and per-layer profiles, on zoo
  points and random fork/join graphs, with plenty and with starved
  pinned host memory;
* **the lemma** — inside a drop-free segment of a whole chain the peak
  never rises and a pinned-host abort never clears;
* **abort fixtures** — points whose pass-3 probes run out of pinned
  host memory, one of which makes the search skip every segment at an
  aborted first fit.

The greedy per-layer algorithm downgrade (``_greedy_downgrade``)
shrinks the hungriest layer first, where the paper walks the layers in
order (Section III-C).  An in-order oracle shows the two agree on
trainability but not on the algorithms they adopt.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from ladder_reference import flip_chain, linear_joint_ladder
from repro.core import dynamic, joint
from repro.core.algo_config import AlgoConfig
from repro.core.dynamic import UntrainableError, adopt_dynamic
from repro.core.interpret import interpret_joint_plan, interpret_plan
from repro.core.joint import JointConfig, JointDecision, adopt_joint
from repro.core.plan import compiled_plan
from repro.core.policy import TransferPolicy
from repro.hw import PAPER_SYSTEM
from repro.hw.host import HostSpec
from repro.zoo import build
from test_static_plan import _dag_and_budget

GB = 1 << 30

#: (network, GPU GB or None for the paper's 12 GB), default batches:
#: points whose pass 3 runs, from short chains to vgg216's 190 flips.
ZOO_POINTS = (("googlenet", 2), ("resnet18", 2), ("resnet34", 2),
              ("resnet50", 4), ("resnet50", 6), ("resnet50", 8),
              ("vgg16", 4), ("vgg16", 6), ("vgg116", None), ("vgg116", 6),
              ("vgg216", None))


def _system(budget_gb):
    if budget_gb is None:
        return PAPER_SYSTEM
    return PAPER_SYSTEM.with_gpu_memory(int(budget_gb * GB))


def _adopted(adopt, network, system):
    """``adopt``'s ``(subject, algos, passes)``, or None if untrainable."""
    try:
        return adopt(network, system)
    except UntrainableError:
        return None


def _assert_same_adoption(planned, reference):
    assert (planned is None) == (reference is None)
    if planned is None:
        return
    assert planned[0] == reference[0]
    assert planned[1].label == reference[1].label
    assert planned[1].profiles == reference[1].profiles


def _pass3(passes):
    return [p for p in passes if p.description.startswith("pass3")]


def _aborted(passes, budget_bytes):
    """Probes that fit the device yet failed: pinned host memory ran out."""
    return [p for p in passes
            if not p.trainable and p.max_usage_bytes <= budget_bytes]


def _starved(network, budget_frac, cap_frac):
    """vgg16-style starved point: the budget ``budget_frac`` of the way
    from all-recompute(m)'s peak to keep-all(p)'s, and a host that may
    pin ``cap_frac`` of the way from all-recompute(m)'s pinned peak to
    all-offload(m)'s."""
    fastest = AlgoConfig.performance_optimal(network)
    plan_m = compiled_plan(network, PAPER_SYSTEM,
                           AlgoConfig.memory_optimal(network))
    plan_p = compiled_plan(network, PAPER_SYSTEM, fastest)
    triggers = frozenset(plan_p.offload_indices(TransferPolicy.vdnn_all(),
                                                network))
    costs = joint.trigger_costs(network, plan_p)
    drop_ok = frozenset(t for t in triggers
                        if JointDecision.RECOMPUTE in costs[t])
    all_drop = interpret_joint_plan(
        network, PAPER_SYSTEM, plan_m,
        JointConfig(offload=triggers - drop_ok, drop=drop_ok))
    all_offload = interpret_joint_plan(network, PAPER_SYSTEM, plan_m,
                                       JointConfig(offload=triggers))
    keep = interpret_joint_plan(network, PAPER_SYSTEM, plan_p, JointConfig())
    low, high = all_drop.max_usage_bytes, keep.max_usage_bytes
    budget = low + int((high - low) * budget_frac)
    low, high = all_drop.pinned_peak_bytes, all_offload.pinned_peak_bytes
    cap = low + int((high - low) * cap_frac)
    return dataclasses.replace(
        PAPER_SYSTEM.with_gpu_memory(budget),
        host=HostSpec(memory_bytes=cap, max_pinned_fraction=1.0))


@st.composite
def _maybe_starved(draw):
    """A :func:`_dag_and_budget` point, half the time with a host that
    may pin only part of what pass 3's flip chain would."""
    network, system = draw(_dag_and_budget())
    if draw(st.booleans()):
        wanted = max((interp.pinned_peak_bytes
                      for _action, interp in flip_chain(network, system)),
                     default=0)
        cap = draw(st.integers(1, max(1, wanted)))
        system = dataclasses.replace(
            system, host=HostSpec(memory_bytes=cap, max_pinned_fraction=1.0))
    return network, system


# ----------------------------------------------------------------------
# Linear oracle
# ----------------------------------------------------------------------
class TestLinearOracle:
    @pytest.mark.parametrize("name,budget_gb", ZOO_POINTS)
    def test_zoo_points_adopt_what_the_linear_scan_adopts(self, name,
                                                          budget_gb):
        network = build(name)
        system = _system(budget_gb)
        planned = _adopted(adopt_joint, network, system)
        reference = _adopted(linear_joint_ladder, network, system)
        _assert_same_adoption(planned, reference)
        assert _pass3(reference[2]), "the point must reach pass 3"

    @settings(max_examples=40, deadline=None)
    @given(point=_maybe_starved())
    def test_random_dags_adopt_what_the_linear_scan_adopts(self, point):
        network, system = point
        _assert_same_adoption(_adopted(adopt_joint, network, system),
                              _adopted(linear_joint_ladder, network, system))


# ----------------------------------------------------------------------
# The lemma the bisection rests on
# ----------------------------------------------------------------------
def _assert_segment_lemma(chain):
    """Inside a drop-free segment the peak never rises and an abort
    never clears; returns how many RECOMPUTE flips raised the peak."""
    rises = 0
    for (_action, shorter), (action, longer) in zip(chain, chain[1:]):
        if action is JointDecision.RECOMPUTE:
            rises += longer.max_usage_bytes > shorter.max_usage_bytes
            continue
        assert longer.max_usage_bytes <= shorter.max_usage_bytes
        assert shorter.aborted is None or longer.aborted is not None
    return rises


class TestSegmentLemma:
    @pytest.mark.parametrize("name", ["resnet18", "vgg16"])
    def test_zoo_chains(self, name):
        network = build(name)
        chain = flip_chain(network, PAPER_SYSTEM)
        _assert_segment_lemma(chain)
        starved = flip_chain(network, _starved(network, 0.75, 0.3))
        _assert_segment_lemma(starved)
        if name == "vgg16":
            assert any(interp.aborted for _action, interp in starved)

    def test_resnet18_peak_rises_at_drop_flips(self):
        # Why the chain is split: a replay re-allocates freed producers,
        # so a longer prefix can peak higher across a RECOMPUTE flip.
        assert _assert_segment_lemma(
            flip_chain(build("resnet18"), PAPER_SYSTEM)) > 0

    @settings(max_examples=40, deadline=None)
    @given(point=_maybe_starved())
    def test_random_dag_chains(self, point):
        _assert_segment_lemma(flip_chain(*point))


# ----------------------------------------------------------------------
# Pass-3 probes that run out of pinned host memory
# ----------------------------------------------------------------------
class TestPinnedAbortFixtures:
    def test_vgg16_starved_host_aborts_in_pass3(self):
        network = build("vgg16")
        system = _starved(network, 0.75, 0.3)
        planned = adopt_joint(network, system)
        _assert_same_adoption(planned, linear_joint_ladder(network, system))
        assert _aborted(_pass3(planned[2]), system.gpu.memory_bytes)

    def test_aborted_first_fit_skips_its_segment(self):
        # Every segment's first fitting prefix aborts, so pass 3 adopts
        # nothing and skips the rest of each segment unprobed.
        network = build("vgg16")
        system = _starved(network, 0.75, 0.1)
        planned = adopt_joint(network, system)
        _assert_same_adoption(planned, linear_joint_ladder(network, system))
        pass3 = _pass3(planned[2])
        assert _aborted(pass3, system.gpu.memory_bytes)
        assert not any(p.trainable for p in pass3)
        assert len(pass3) < len(flip_chain(network, system))

    @pytest.mark.parametrize("budget_frac", [0.3, 0.75])
    @pytest.mark.parametrize("cap_frac", [0.05, 0.2])
    @pytest.mark.parametrize("name", ["alexnet", "overfeat", "vgg16"])
    def test_starved_zoo_points_adopt_what_the_linear_scan_adopts(
            self, name, cap_frac, budget_frac):
        network = build(name)
        system = _starved(network, budget_frac, cap_frac)
        _assert_same_adoption(_adopted(adopt_joint, network, system),
                              _adopted(linear_joint_ladder, network, system))


# ----------------------------------------------------------------------
# Greedy downgrade: hungriest first vs the paper's in-order walk
# ----------------------------------------------------------------------
def _in_order_downgrade(network, probe, subject, label, description):
    """Section III-C's walk: downgrade the layers in network order, each
    until the configuration fits or the layer cannot shrink further."""
    algos = AlgoConfig.performance_optimal(network)
    algos.label = label
    probes = 0
    result = probe(subject, algos, f"{description} {probes}")
    for layer in sorted(algos.profiles):
        while not result.trainable and algos.downgrade(network, layer):
            probes += 1
            result = probe(subject, algos, f"{description} {probes}")
        if result.trainable:
            return algos, result
    return None


def _in_order(adopt, network, system):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dynamic, "_greedy_downgrade", _in_order_downgrade)
        patch.setattr(joint, "_greedy_downgrade", _in_order_downgrade)
        return _adopted(adopt, network, system)


def _downgrade_ran(passes):
    return any("downgrade" in p.description or
               p.description.startswith("greedy[") for p in passes)


def _downgrade_budgets(network):
    """Budgets from vDNN_all(m)'s peak up to vDNN_all(p)'s, where the
    downgrade loops of both ladders run."""
    def peak(algos):
        plan = compiled_plan(network, PAPER_SYSTEM, algos)
        return interpret_plan(network, PAPER_SYSTEM, plan,
                              TransferPolicy.vdnn_all()).max_usage_bytes

    low = peak(AlgoConfig.memory_optimal(network))
    high = peak(AlgoConfig.performance_optimal(network))
    return [low + (high - low) * step // 4 for step in range(4)]


def _assert_orders_agree_on_trainability(network, system):
    """Both orders train under the same subject.  Returns, for each of
    the two ladders whose downgrade loop ran, whether the orders
    adopted different per-layer algorithms."""
    outcomes = []
    for adopt in (adopt_dynamic, adopt_joint):
        greedy = _adopted(adopt, network, system)
        walked = _in_order(adopt, network, system)
        assert (greedy is None) == (walked is None)
        if greedy is None or not _downgrade_ran(greedy[2]):
            continue
        assert greedy[0] == walked[0]
        assert greedy[1].label == walked[1].label
        outcomes.append(greedy[1].profiles != walked[1].profiles)
    return outcomes


class TestGreedyDowngradeOrder:
    @pytest.mark.parametrize("name,batch", [("vgg16", 256), ("vgg16", 64),
                                            ("overfeat", 128)])
    def test_zoo_orders_train_alike_but_adopt_different_algos(self, name,
                                                              batch):
        network = build(name, batch)
        differs = []
        for budget in _downgrade_budgets(network):
            differs += _assert_orders_agree_on_trainability(
                network, PAPER_SYSTEM.with_gpu_memory(budget))
        # Not the same fixed points: the hungriest-first loop settles
        # on other per-layer algorithms wherever it runs.
        assert differs and all(differs)

    def test_vgg16_256_headline_downgrades(self):
        # The paper's order takes conv_01-conv_03 to implicit GEMM, this
        # loop stops all four downgraded layers at FFT tiling.
        network = build("vgg16", 256)
        fastest = AlgoConfig.performance_optimal(network).profiles
        downgraded = {}
        for label, adopt in (("greedy", adopt_dynamic),
                             ("in_order", lambda *point: _in_order(
                                 adopt_dynamic, *point))):
            policy, algos, _passes = adopt(network, PAPER_SYSTEM)
            assert policy == TransferPolicy.vdnn_conv()
            downgraded[label] = [
                (network[index].name, algos.profiles[index].algo.name)
                for index in sorted(fastest)
                if algos.profiles[index] != fastest[index]]
        conv = [f"conv_0{k}" for k in range(1, 5)]
        assert downgraded["greedy"] == [(name, "FFT_TILING")
                                        for name in conv]
        assert downgraded["in_order"] == [
            (name, "IMPLICIT_GEMM") for name in conv[:3]] + [
            ("conv_04", "FFT_TILING")]

    @settings(max_examples=25, deadline=None)
    @given(point=_dag_and_budget())
    def test_random_dag_orders_train_alike(self, point):
        _assert_orders_agree_on_trainability(*point)
