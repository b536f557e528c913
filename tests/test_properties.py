"""Property-based tests on core invariants (hypothesis).

Random network topologies and random policies must preserve the
invariants the paper's mechanism rests on: schedules are consistent,
liveness release points are safe, simulated usage is conservative, and
— the strongest — functional training is bit-identical under any
offload policy.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.alloc import ALIGNMENT, PoolAllocator
from repro.core import (
    AlgoConfig,
    LivenessAnalysis,
    TransferPolicy,
    simulate_vdnn,
)
from repro.graph import NetworkBuilder, PoolMode, TensorSpec
from repro.graph.shapes import conv_out_dim, pool_out_dim
from repro.hw import PAPER_SYSTEM
from repro.numerics import TrainingRuntime, make_batch


# ----------------------------------------------------------------------
# Random-network generator
# ----------------------------------------------------------------------
@st.composite
def random_linear_network(draw):
    """A random but valid CONV/ACTV/POOL stack + classifier."""
    size = draw(st.sampled_from([8, 12, 16]))
    batch = draw(st.integers(min_value=1, max_value=4))
    builder = NetworkBuilder("random", (batch, 3, size, size))
    blocks = draw(st.integers(min_value=1, max_value=4))
    for _ in range(blocks):
        channels = draw(st.sampled_from([4, 8, 12]))
        builder.conv(channels, kernel=3, pad=1)
        if draw(st.booleans()):
            builder.relu()
        if size >= 4 and draw(st.booleans()):
            mode = draw(st.sampled_from([PoolMode.MAX, PoolMode.AVG]))
            builder.pool(mode=mode)
            size //= 2
    builder.fc(10).softmax()
    return builder.build()


@st.composite
def random_dag_network(draw):
    """A random network with fork/join structure (adds and concats)."""
    size = draw(st.sampled_from([8, 16]))
    batch = draw(st.integers(min_value=1, max_value=3))
    builder = NetworkBuilder("random-dag", (batch, 3, size, size))
    channels = draw(st.sampled_from([4, 8]))
    builder.conv(channels, kernel=3, pad=1)
    if draw(st.booleans()):
        builder.relu()

    blocks = draw(st.integers(min_value=1, max_value=3))
    for _ in range(blocks):
        kind = draw(st.sampled_from(["residual", "inception", "plain"]))
        if kind == "residual":
            shortcut = builder.tap()
            builder.conv(channels, kernel=3, pad=1)
            if draw(st.booleans()):
                builder.batchnorm()
            builder.relu()
            builder.conv(channels, kernel=3, pad=1)
            main = builder.tap()
            builder.add([main, shortcut])
            builder.relu()
        elif kind == "inception":
            source = builder.tap()
            builder.conv(channels, kernel=1, after=source).relu()
            left = builder.tap()
            builder.conv(channels, kernel=3, pad=1, after=source).relu()
            right = builder.tap()
            builder.concat([left, right])
            channels *= 2
        else:
            builder.conv(channels, kernel=3, pad=1).relu()
    builder.fc(10).softmax()
    return builder.build()


@settings(max_examples=25, deadline=None)
@given(network=random_dag_network())
def test_property_dag_simulation_invariants(network):
    """Fork/join topologies preserve every simulator invariant."""
    result = simulate_vdnn(network, PAPER_SYSTEM, TransferPolicy.vdnn_all(),
                           AlgoConfig.memory_optimal(network))
    assert result.offload_bytes == result.prefetch_bytes
    assert not [e for e in result.timeline.events if "(demand)" in e.label]
    times = [t for t, _ in result.usage.curve()]
    assert times == sorted(times)


@settings(max_examples=6, deadline=None)
@given(network=random_dag_network(), seed=st.integers(0, 2 ** 16))
def test_property_dag_training_bit_identical(network, seed):
    """Random fork/join networks train bitwise-identically offloaded
    (all and conv) and under the conv + recompute hybrid."""
    shape = network.input_node.output_spec.shape
    images, labels = make_batch(shape, 10, seed)
    reference = TrainingRuntime(network, TransferPolicy.none(), seed=seed)
    managed = [
        TrainingRuntime(network, TransferPolicy.vdnn_all(), seed=seed),
        TrainingRuntime(network, TransferPolicy.vdnn_conv(), seed=seed),
        TrainingRuntime(network, TransferPolicy.vdnn_conv(), seed=seed,
                        recompute_segments=2),
    ]
    for _ in range(2):
        loss = reference.train_step(images, labels).loss
        for runtime in managed:
            assert runtime.train_step(images, labels).loss == loss
    for runtime in managed:
        assert runtime.parameter_fingerprint() == \
            reference.parameter_fingerprint()


@settings(max_examples=25, deadline=None)
@given(network=random_linear_network())
def test_property_schedules_consistent(network):
    forward = network.forward_schedule()
    backward = network.backward_schedule()
    assert sorted(forward) == list(range(len(network)))
    assert set(backward) == set(forward) - {0}
    for index in forward:
        for producer in network[index].producers:
            assert forward.index(producer) < forward.index(index)


@settings(max_examples=25, deadline=None)
@given(network=random_linear_network())
def test_property_liveness_release_points_safe(network):
    """No storage is released (forward or backward) before its last use."""
    liveness = LivenessAnalysis(network)
    for storage in liveness.all_storages():
        consumers = [
            c for idx in storage.chain for c in network[idx].consumers
            if network[c].storage_index != storage.owner
        ]
        if consumers:
            assert storage.forward_release_at == max(consumers)
        if storage.needed_backward:
            assert storage.backward_release_after == min(storage.backward_users)
            assert storage.first_backward_use == max(storage.backward_users)


@settings(max_examples=15, deadline=None)
@given(network=random_linear_network(),
       policy_kind=st.sampled_from(["all", "conv", "none"]))
def test_property_simulation_invariants(network, policy_kind):
    policy = {"all": TransferPolicy.vdnn_all,
              "conv": TransferPolicy.vdnn_conv,
              "none": TransferPolicy.none}[policy_kind]()
    result = simulate_vdnn(network, PAPER_SYSTEM, policy,
                           AlgoConfig.memory_optimal(network))
    # Usage is non-negative and avg <= max.
    assert 0 <= result.avg_usage_bytes <= result.max_usage_bytes
    # Offload and prefetch traffic balance.
    assert result.offload_bytes == result.prefetch_bytes
    # Timeline timestamps are sane.
    for event in result.timeline.events:
        assert event.end >= event.start >= 0
    # Never a demand fetch under the Figure-10 prefetcher.
    assert not [e for e in result.timeline.events if "(demand)" in e.label]


@settings(max_examples=8, deadline=None)
@given(network=random_linear_network(), seed=st.integers(0, 2 ** 16))
def test_property_training_bit_identical_under_offload(network, seed):
    """The big one: any random network trains bitwise-identically with
    and without vDNN_all offloading."""
    shape = network.input_node.output_spec.shape
    images, labels = make_batch(shape, 10, seed)
    reference = TrainingRuntime(network, TransferPolicy.none(), seed=seed)
    offloaded = TrainingRuntime(network, TransferPolicy.vdnn_all(), seed=seed)
    for _ in range(2):
        a = reference.train_step(images, labels)
        b = offloaded.train_step(images, labels)
        assert a.loss == b.loss
    assert reference.parameter_fingerprint() == offloaded.parameter_fingerprint()


@settings(max_examples=40, deadline=None)
@given(
    size=st.integers(min_value=1, max_value=64),
    kernel=st.integers(min_value=1, max_value=7),
    stride=st.integers(min_value=1, max_value=3),
)
def test_property_pool_dim_at_least_conv_dim_unpadded(size, kernel, stride):
    """Ceil-mode pooling never loses elements vs. floor mode (pad = 0;
    with padding Caffe clips windows that start inside the pad, so the
    relation only holds unpadded)."""
    if size < kernel:
        return
    conv = conv_out_dim(size, kernel, stride, 0)
    pool = pool_out_dim(size, kernel, stride, 0)
    assert pool >= conv


@settings(max_examples=40, deadline=None)
@given(shape=st.lists(st.integers(min_value=1, max_value=64),
                      min_size=1, max_size=5),
       batch=st.integers(min_value=1, max_value=512))
def test_property_tensor_spec_batch_rescale(shape, batch):
    spec = TensorSpec(tuple(shape))
    rescaled = spec.with_batch(batch)
    assert rescaled.count * shape[0] == spec.count * batch


# ----------------------------------------------------------------------
# Multi-tenant pool allocator
# ----------------------------------------------------------------------
_TENANTS = 3

#: One tenant operation: (tenant, is_alloc, size-or-pick).  ``size`` is
#: the allocation request for allocs; ``pick`` selects which of the
#: tenant's live blocks to free (modulo its live count) for frees.
_pool_ops = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=_TENANTS - 1),
        st.booleans(),
        st.integers(min_value=0, max_value=4096),
    ),
    min_size=1,
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(ops=_pool_ops)
def test_property_pool_multitenant_interleaved(ops):
    """The shared pool survives interleaved traffic from N tenants.

    Invariants, checked after every operation: the free list and the
    live set tile the pool exactly (no block overlap), a freed block
    cannot be freed again, live bytes never exceed capacity, and after
    every tenant releases everything the pool coalesces back to one
    free block spanning the whole capacity.
    """
    pool = PoolAllocator(capacity=64 * 1024)
    live = {tenant: [] for tenant in range(_TENANTS)}

    for tenant, is_alloc, value in ops:
        if is_alloc:
            try:
                block = pool.alloc(value, tag=f"tenant{tenant}")
            except MemoryError:
                continue  # OOM under pressure is legal, corruption is not
            live[tenant].append(block)
        elif live[tenant]:
            block = live[tenant].pop(value % len(live[tenant]))
            pool.free(block)
            # Double-free of the same handle must be refused.
            with pytest.raises(ValueError):
                pool.free(block)
        pool.check_invariants()
        assert 0 <= pool.live_bytes <= pool.capacity
        assert pool.largest_free_block <= pool.free_bytes
        # No two live blocks (any tenant) overlap.
        spans = sorted(
            (b.offset, b.offset + b.size)
            for blocks in live.values() for b in blocks
        )
        for (_, end), (start, _) in zip(spans, spans[1:]):
            assert end <= start

    # Tenants release in round-robin order: full coalescing must follow.
    while any(live.values()):
        for tenant in range(_TENANTS):
            if live[tenant]:
                pool.free(live[tenant].pop())
                pool.check_invariants()
    assert pool.live_bytes == 0
    assert pool.largest_free_block == pool.capacity == pool.free_bytes
    assert pool.fragmentation == 0.0
    # And the empty pool can serve a capacity-sized allocation again.
    whole = pool.alloc(pool.capacity)
    assert whole.size == pool.capacity
    pool.free(whole)


@settings(max_examples=40, deadline=None)
@given(nbytes=st.integers(min_value=0, max_value=128 * 1024))
def test_property_pool_can_fit_matches_alloc(nbytes):
    """``can_fit`` exactly predicts whether ``alloc`` succeeds."""
    pool = PoolAllocator(capacity=64 * 1024)
    pool.alloc(10 * ALIGNMENT)      # leave a dented pool, not pristine
    fits = pool.can_fit(nbytes)
    try:
        pool.alloc(nbytes)
        assert fits
    except MemoryError:
        assert not fits
