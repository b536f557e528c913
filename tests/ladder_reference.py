"""The simulated probes of the vDNN_dyn and joint ladders, as an oracle.

The ladders in ``repro.core.dynamic`` and ``repro.core.joint`` probe
each configuration by abstract interpretation of its compiled plan and
simulate only the point they adopt.  Before that, every probe was one
executor walk through the result cache.  This module keeps those probes:

* :func:`simulated_ladder` runs a ladder the old way, each probe a
  ``cached_vdnn`` / ``cached_joint`` simulation recorded through the
  same ``_recording`` builder;
* :func:`checked_ladder` runs it with a probe that interprets *and*
  simulates every configuration and asserts the two agree on what the
  ladder reads: trainability, peak usage, and whether the walk ran out
  of pinned host memory.

``test_static_plan.py`` and ``test_joint_differential.py`` hold the
interpreted ladders to these on the zoo parity points and on random
fork/join graphs.

The joint ladder's pass 3 bisects its greedy flip chain; before that it
probed every prefix in order.  :func:`linear_joint_ladder` runs the
ladder with that linear pass 3, and :func:`flip_chain` interprets every
prefix of the chain, for the lemma the bisection rests on.
"""

from __future__ import annotations

from unittest import mock

from repro.core import joint
from repro.core.algo_config import AlgoConfig
from repro.core.cached import cached_vdnn
from repro.core.dynamic import _recording, run_profiling_ladder
from repro.core.interpret import interpret_joint_plan, interpret_plan
from repro.core.joint import JointConfig, cached_joint, run_joint_ladder
from repro.core.plan import compiled_plan
from repro.core.policy import TransferPolicy

#: How a simulated walk's ``failure`` starts when pinned memory ran out.
PINNED_ABORT = "host pinned memory exhausted"

#: kind -> (simulate, interpret, ladder, recorded policy of a subject).
_KINDS = {
    "dyn": (cached_vdnn, interpret_plan,
            lambda network, system, probe, budget: run_profiling_ladder(
                network, probe, budget),
            lambda policy: policy),
    "joint": (cached_joint, interpret_joint_plan, run_joint_ladder,
              JointConfig.policy),
}


def _ladder(kind, network, system, run):
    """Run ``kind``'s ladder with ``run`` as the probe.

    Returns ``(subject, algos, adopted_probe_result, passes)``.
    """
    _simulate, _interpret, ladder, policy_of = _KINDS[kind]
    probe, passes = _recording(run, policy_of)
    subject, algos, adopted = ladder(network, system, probe,
                                     system.gpu.memory_bytes)
    return subject, algos, adopted, passes


def simulated_ladder(kind, network, system, use_cache=None):
    """The ladder as it ran when every probe was a simulation."""
    simulate = _KINDS[kind][0]
    return _ladder(kind, network, system,
                   lambda subject, algos, _description: simulate(
                       network, system, subject, algos, use_cache=use_cache))


def assert_probe_agrees(interp, result, description):
    """An interpreted and a simulated probe agree on what a ladder reads."""
    assert interp.trainable == result.trainable, description
    assert interp.max_usage_bytes == result.max_usage_bytes, description
    ran_out = (result.failure or "").startswith(PINNED_ABORT)
    assert (interp.aborted is not None) == ran_out, (
        description, interp.aborted, result.failure)


def checked_ladder(kind, network, system):
    """The interpreted ladder, each probe checked against a simulation.

    Returns what :func:`_ladder` returns, with the interpretations as
    probe results, so its history is the production ladder's.
    """
    simulate, interpret, _ladder_fn, _policy_of = _KINDS[kind]

    def probe(subject, algos, description):
        interp = interpret(network, system,
                           compiled_plan(network, system, algos), subject)
        assert_probe_agrees(interp, simulate(network, system, subject, algos),
                            description)
        return interp

    return _ladder(kind, network, system, probe)


def linear_first_trainable_prefix(flips, flip_prefix, budget_bytes):
    """Pass 3 as it ran before bisection: every prefix, in order."""
    for k in range(1, len(flips) + 1):
        config, result = flip_prefix(k)
        if result.trainable:
            return config, result
    return None


def linear_joint_ladder(network, system):
    """:func:`repro.core.joint.adopt_joint` with the linear pass 3."""
    with mock.patch.object(joint, "_first_trainable_prefix",
                           linear_first_trainable_prefix):
        return joint.adopt_joint(network, system)


def flip_chain(network, system):
    """Pass 3's whole greedy chain, each prefix interpreted.

    Returns ``[(action, interpretation)]``, entry ``k - 1`` for the
    prefix of the first ``k`` flips (``action`` is flip ``k``'s).
    """
    algos = AlgoConfig.performance_optimal(network)
    plan = compiled_plan(network, system, algos)
    triggers = sorted(plan.offload_indices(TransferPolicy.vdnn_all(),
                                           network))
    flips = joint._greedy_flips(triggers, joint.trigger_costs(network, plan))
    return [(action, interpret_joint_plan(
                network, system, plan, joint._config_of(dict(flips[:k]))))
            for k, (_trigger, action) in enumerate(flips, 1)]
