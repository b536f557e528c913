"""Functional-runtime benchmark: real training-step cost of offloading.

Times actual numpy training steps (the functional backend, not the
performance model) under the none / conv / all policies.  On a CPU the
offload copies are memcpy-speed, so the overhead is modest — but the
benchmark pins down that the manager machinery itself is cheap and that
all three policies compute identical losses while doing so.
"""

import pytest

from repro.core import TransferPolicy
from repro.graph import NetworkBuilder
from repro.numerics import TrainingRuntime, make_batch


def build_network():
    builder = NetworkBuilder("bench-cnn", (8, 3, 32, 32))
    for _ in range(4):
        builder.conv(16, kernel=3, pad=1).relu()
    builder.pool()
    return builder.fc(10).softmax().build()


@pytest.fixture(scope="module")
def batch():
    return make_batch((8, 3, 32, 32), 10, seed=0)


@pytest.fixture(scope="module")
def resident_loss(batch):
    """The first step's loss with everything resident."""
    runtime = TrainingRuntime(build_network(), TransferPolicy.none(), seed=0)
    return runtime.train_step(*batch).loss


@pytest.mark.parametrize("policy_name,factory", [
    ("none", TransferPolicy.none),
    ("conv", TransferPolicy.vdnn_conv),
    ("all", TransferPolicy.vdnn_all),
])
def test_train_step_throughput(benchmark, policy_name, factory, batch,
                               resident_loss):
    runtime = TrainingRuntime(build_network(), factory(), seed=0)
    images, labels = batch
    # Same first step, same loss, bit for bit, whatever the policy moves.
    assert runtime.train_step(images, labels).loss == resident_loss
    result = benchmark(runtime.train_step, images, labels)
    assert result.loss > 0
