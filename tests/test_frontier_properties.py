"""Property suite for the compression model and checkpoint planner.

Hypothesis pins the algebraic laws the cDMA + joint-planner frontier
rests on, over random model parameters and random network topologies:

* **Compression laws** — the wire ratio always lands in ``(0, 1]``, is
  monotone non-increasing in sparsity (more zeros never cost more wire
  bytes), and a compressed transfer never exceeds its raw size.
* **Recompute laws** — every checkpoint plan is a true partition of
  the droppable storages, a budgeted ``plan_recompute`` never adopts a
  plan that misses its budget, and the checkpoint-everything plan
  degenerates to the baseline: nothing dropped, zero replay seconds.
* **Joint laws** — the planner's adopted config keeps its three
  per-layer decision sets disjoint, and only spends actions on actual
  offload triggers.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AlgoConfig, UntrainableError
from repro.core.joint import plan_joint
from repro.core.recompute import (
    checkpoint_plan,
    droppable_count,
    plan_recompute,
    simulate_recompute,
)
from repro.hw import PAPER_SYSTEM
from repro.hw.compression import CDMA_ENGINE, CompressionModel

from test_properties import random_dag_network, random_linear_network


# ----------------------------------------------------------------------
# Compression-model laws
# ----------------------------------------------------------------------
@st.composite
def compression_models(draw):
    """Random but physically sane engine parameters."""
    return CompressionModel(
        engine_latency=draw(st.floats(0.0, 1e-3)),
        base_sparsity=draw(st.floats(0.0, 1.0)),
        depth_sparsity=draw(st.floats(0.0, 1.0)),
        metadata_overhead=draw(st.floats(0.0, 0.5)),
        min_ratio=draw(st.floats(0.01, 1.0)),
    )


@settings(max_examples=100, deadline=None)
@given(model=compression_models(), relu=st.booleans(),
       position=st.floats(-1.0, 2.0))
def test_wire_ratio_in_unit_interval(model, relu, position):
    ratio = model.ratio(relu, position)
    assert 0.0 < ratio <= 1.0
    sparsity = model.sparsity(relu, position)
    assert 0.0 <= sparsity <= 1.0


@settings(max_examples=100, deadline=None)
@given(model=compression_models(),
       p1=st.floats(0.0, 1.0), p2=st.floats(0.0, 1.0))
def test_ratio_monotone_in_sparsity(model, p1, p2):
    """More zeros never cost more wire bytes (cDMA Fig. 4 law)."""
    lo, hi = min(p1, p2), max(p1, p2)
    assert model.sparsity(True, lo) <= model.sparsity(True, hi)
    assert model.ratio(True, lo) >= model.ratio(True, hi)
    # Dense (non-ReLU) data is the worst case at any depth.
    assert model.ratio(False, hi) >= model.ratio(True, hi)


@settings(max_examples=100, deadline=None)
@given(model=compression_models(), relu=st.booleans(),
       position=st.floats(0.0, 1.0),
       nbytes=st.integers(0, 1 << 34))
def test_compressed_never_exceeds_raw(model, relu, position, nbytes):
    wire = model.compressed_bytes(nbytes, relu, position)
    assert wire <= nbytes
    if nbytes > 0:
        assert wire >= 1  # a transfer never vanishes entirely
    else:
        assert wire == 0


def test_default_engine_matches_cdma_paper():
    """The stock engine sits inside the paper's measured 45-90% band."""
    assert CDMA_ENGINE.sparsity(True, 0.0) == pytest.approx(0.45)
    assert CDMA_ENGINE.sparsity(True, 1.0) == pytest.approx(0.80)
    assert CDMA_ENGINE.sparsity(False, 0.5) == 0.0


# ----------------------------------------------------------------------
# Checkpoint/recompute laws
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(network=random_dag_network(),
       segments=st.one_of(st.none(), st.integers(1, 12)))
def test_checkpoint_plan_partitions_droppable(network, segments):
    """checkpoints and dropped partition the droppable set exactly."""
    plan = checkpoint_plan(network, segments)
    droppable = set(plan.droppable_order)
    assert len(plan.droppable_order) == len(droppable)
    assert len(droppable) == droppable_count(network)
    assert set(plan.checkpoints) | set(plan.dropped) == droppable
    assert not set(plan.checkpoints) & set(plan.dropped)
    if droppable:
        count = len(droppable)
        stride = max(1, math.ceil(count / (segments or
                                           max(1, math.isqrt(count)))))
        assert len(plan.checkpoints) == math.ceil(count / stride)


@settings(max_examples=10, deadline=None)
@given(network=random_linear_network())
def test_checkpoint_everything_is_baseline(network):
    """One checkpoint per droppable storage ≡ no recomputation at all."""
    count = droppable_count(network)
    if count == 0:
        return
    plan = checkpoint_plan(network, count)
    assert plan.dropped == frozenset()
    algos = AlgoConfig.memory_optimal(network)
    result = simulate_recompute(network, PAPER_SYSTEM, algos, count)
    assert result.compute_stall_seconds == 0.0  # zero replay seconds


@settings(max_examples=10, deadline=None)
@given(network=random_linear_network())
def test_plan_recompute_respects_budget(network):
    """A plan adopted under budget actually fits that budget."""
    algos = AlgoConfig.memory_optimal(network)
    floor = simulate_recompute(network, PAPER_SYSTEM, algos, 1)
    budget = int(floor.max_usage_bytes * 1.5) + 1
    plan = plan_recompute(network, PAPER_SYSTEM, algos,
                          budget_bytes=budget, use_cache=False)
    assert plan.result.max_usage_bytes <= budget
    # Probes walk descending segment counts; the adopted probe is the
    # first (largest-checkpoint-count) one that fits.
    assert plan.probes[-1][1] is True
    for _segments, fits in plan.probes[:-1]:
        assert fits is False


# ----------------------------------------------------------------------
# Joint-planner laws
# ----------------------------------------------------------------------
@settings(max_examples=8, deadline=None)
@given(network=random_linear_network(),
       fraction=st.floats(0.4, 1.0))
def test_joint_config_sets_disjoint(network, fraction):
    """Adopted joint configs never double-book a layer's strategy."""
    from repro.core.plan import compiled_plan
    from repro.core import TransferPolicy

    floor = compiled_plan(
        network, PAPER_SYSTEM, AlgoConfig.memory_optimal(network))
    triggers = set(floor.offload_indices(
        TransferPolicy.vdnn_all(), network))
    budget = int(PAPER_SYSTEM.gpu.memory_bytes * fraction)
    system = PAPER_SYSTEM.with_gpu_memory(budget)
    try:
        plan = plan_joint(network, system, use_cache=False)
    except UntrainableError:
        return
    config = plan.config
    assert not config.offload & config.compress
    assert not config.offload & config.drop
    assert not config.compress & config.drop
    assert (config.offload | config.compress | config.drop) <= triggers
    assert plan.result.trainable
