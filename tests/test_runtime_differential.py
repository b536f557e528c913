"""The numpy runtime executes the schedule the simulator times.

A recording device heap logs one training step of the numpy runtime;
the schedule trace of the simulator (``simulate_vdnn(..., verify=True)``)
must list the same feature-map (``Y<owner>``) and gradient-twin
(``dY<owner>``) allocations and frees, in the same order and with the
same sizes, for every distinct :class:`~repro.core.plan.ScheduleKey`
under none, all(m) and conv(m).  Offsets are the pool's business, not
the schedule's, so they are not compared.
"""

import re

import pytest
from hypothesis import given, settings

from repro.analysis.trace import OpKind
from repro.core import AlgoConfig, TransferPolicy, simulate_vdnn
from repro.core.plan import compiled_plan
from repro.hw import PAPER_SYSTEM
from repro.numerics import DeviceHeap, TrainingRuntime, make_batch, runtime
from repro.zoo import build_unrolled_lstm, build_unrolled_rnn

from conftest import make_deep_cnn, make_fork_join_cnn, make_linear_cnn
from test_properties import random_dag_network
from test_resnet import mini_resnet

POLICIES = (TransferPolicy.none, TransferPolicy.vdnn_all,
            TransferPolicy.vdnn_conv)

_BUFFER = re.compile(r"(d?)Y(\d+)$")


def _op(kind, buffer, nbytes):
    """``(alloc|free, owner, is_gradient, nbytes)``, or None for a
    buffer that is neither a feature map nor a gradient twin."""
    match = _BUFFER.match(buffer)
    if match is None:
        return None
    return kind, int(match[2]), bool(match[1]), nbytes


class _RecordingHeap(DeviceHeap):
    def __init__(self, budget_bytes):
        super().__init__(budget_bytes)
        self.log = []

    def store(self, key, array):
        self.log.append(_op("alloc", key, array.nbytes))
        return super().store(key, array)

    def free(self, key):
        self.log.append(_op("free", key, self.get(key).nbytes))
        super().free(key)


def trained_ops(network, policy):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(runtime, "DeviceHeap", _RecordingHeap)
        trainer = TrainingRuntime(network, policy, seed=0)
    trainer.device.log.clear()  # the parameters' stores
    classes = network.output_node.output_spec.shape[1]
    images, labels = make_batch(network.input_node.output_spec.shape,
                                classes, 0)
    trainer.train_step(images, labels)
    return [op for op in trainer.device.log if op is not None]


def simulated_ops(network, policy):
    trace = simulate_vdnn(network, PAPER_SYSTEM, policy,
                          AlgoConfig.memory_optimal(network),
                          verify=True).schedule_trace
    sizes = {}
    ops = []
    for kind, buffer, nbytes in zip(trace.kinds, trace.buffers,
                                    trace.nbytes):
        if kind is OpKind.ALLOC:
            sizes[buffer] = nbytes
            ops.append(_op("alloc", buffer, nbytes))
        elif kind is OpKind.FREE:
            ops.append(_op("free", buffer, sizes.get(buffer, 0)))
    return [op for op in ops if op is not None]


def assert_same_schedule(network):
    plan = compiled_plan(network, PAPER_SYSTEM,
                         AlgoConfig.memory_optimal(network))
    distinct = {}
    for factory in POLICIES:
        policy = factory()
        distinct.setdefault(
            plan.schedule_key(network, PAPER_SYSTEM, policy), policy)
    for policy in distinct.values():
        simulated = simulated_ops(network, policy)
        assert any(op[2] for op in simulated)
        assert trained_ops(network, policy) == simulated, policy.describe()


@pytest.mark.parametrize("factory", [
    make_linear_cnn,
    make_fork_join_cnn,
    make_deep_cnn,
    lambda: build_unrolled_lstm(4, 8, 16, 4, 4),
    lambda: build_unrolled_rnn(6, 8, 16, 4, 4),
    mini_resnet,
], ids=["linear", "fork-join", "deep", "lstm", "rnn", "mini-resnet"])
def test_runtime_heap_follows_the_simulated_schedule(factory):
    assert_same_schedule(factory())


@settings(max_examples=8, deadline=None)
@given(network=random_dag_network())
def test_property_dag_runtime_follows_the_simulated_schedule(network):
    assert_same_schedule(network)
