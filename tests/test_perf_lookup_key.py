"""The result cache's in-process keys partition points as digests do.

In memory the cache keys a point by :func:`repro.perf.fingerprint.lookup_key`
(recipe or digest, canonical texts); on disk by its
:func:`repro.perf.fingerprint.fingerprint_point` digest.  A hit in one
tier must be a hit in the other, so two points share a key exactly when
they share a digest.  Each point here is a key function awaiting its
``keyer``, so both names come from the call sites the cache uses.
"""

import dataclasses
import gc
import weakref
from functools import partial

import pytest

from repro.analysis.verify import SWEEP_POLICIES
from repro.core import evaluate
from repro.core.algo_config import AlgoConfig
from repro.core.api import point_key
from repro.core.cached import baseline_key, recompute_key, vdnn_key
from repro.core.joint import JointConfig, joint_key
from repro.core.policy import TransferPolicy
from repro.hw import PAPER_SYSTEM
from repro.perf import configure_cache, get_cache, set_cache
from repro.perf.cache import ENV_DISABLE
from repro.perf.fingerprint import fingerprint_point, lookup_key
from repro.zoo import available, build

from conftest import make_fork_join_cnn


def assert_keys_partition_as_digests(points):
    keys = [point(lookup_key) for point in points]
    digests = [point(fingerprint_point) for point in points]
    assert len(set(keys)) == len(set(digests)) == \
        len(set(zip(keys, digests)))
    # Equal points are present, so "equal digests, equal keys" is tested.
    assert len(set(digests)) < len(points)


@pytest.mark.parametrize("name", available())
def test_zoo_policy_grid(name):
    network = build(name, 4)
    points = []
    for policy, algo in SWEEP_POLICIES:
        algo = "p" if algo == "-" else algo
        for system in (PAPER_SYSTEM, PAPER_SYSTEM.with_oracular_gpu()):
            # Twice: a second resolve makes equal, unshared algos.
            points += [partial(point_key, network, system, policy, algo)] * 2
    assert_keys_partition_as_digests(points)


def test_downgraded_joint_and_recompute_points():
    network = build("alexnet", 16)
    performance = AlgoConfig.performance_optimal(network)
    downgraded = performance.copy()
    layer = next(index for index, profile
                 in sorted(performance.profiles.items())
                 if profile.workspace_bytes)
    assert downgraded.downgrade(network, layer)
    # Label "dyn" but the profiles of (p): only the label tells them apart.
    relabelled = AlgoConfig("dyn", dict(performance.profiles))
    memory = AlgoConfig.memory_optimal(network)
    # One profile edited at equal workspace: a slower multiplier, and
    # one that equals 1.0 as an int and as a float.
    slower, integral, fractional = memory.copy(), memory.copy(), memory.copy()
    profile = memory.profiles[layer]
    slower.profiles[layer] = dataclasses.replace(
        profile, time_multiplier=profile.time_multiplier * 2)
    integral.profiles[layer] = dataclasses.replace(profile, time_multiplier=1)
    fractional.profiles[layer] = dataclasses.replace(
        profile, time_multiplier=1.0)
    configs = [performance, performance.copy(), downgraded, relabelled,
               memory, AlgoConfig.memory_optimal(network), slower, integral,
               fractional]
    policy = TransferPolicy.vdnn_all()
    convs = sorted(node.index for node in network.conv_layers)
    # Two configs that differ only in dropping vs offloading one layer,
    # and an equal copy of the second.
    offloaded = JointConfig(offload=frozenset(convs[:2]))
    joint_configs = [offloaded] + [
        JointConfig(offload=frozenset(convs[:1]), drop=frozenset(convs[1:2]))
        for _copy in range(2)]
    points = []
    for algos in configs:
        points += [partial(baseline_key, network, PAPER_SYSTEM, algos),
                   partial(vdnn_key, network, PAPER_SYSTEM, policy, algos)]
        for config in joint_configs:
            points.append(partial(joint_key, network, PAPER_SYSTEM, config,
                                  algos))
        for segments in (None, 1, 4, 4.0):
            points.append(partial(recompute_key, network, PAPER_SYSTEM,
                                  algos, segments))
    assert_keys_partition_as_digests(points)


def test_hand_built_and_derived_networks():
    zoo_network = build("alexnet", 16)
    networks = [zoo_network, zoo_network.with_dtype_bytes(2),
                zoo_network.with_dtype_bytes(2), make_fork_join_cnn(),
                make_fork_join_cnn(), make_fork_join_cnn(batch=8)]
    assert not hasattr(networks[1], "_repro_recipe")
    points = []
    for network in networks:
        algos = AlgoConfig.memory_optimal(network)
        points += [partial(baseline_key, network, PAPER_SYSTEM, algos),
                   partial(vdnn_key, network, PAPER_SYSTEM,
                           TransferPolicy.vdnn_conv(), algos)]
    assert_keys_partition_as_digests(points)


def test_systems_differing_in_one_field():
    network = build("alexnet", 16)
    algos = AlgoConfig.performance_optimal(network)
    pcie = PAPER_SYSTEM.pcie
    # 16e9 == 16_000_000_000, but the two encode (and digest) apart.
    as_int = dataclasses.replace(pcie, max_bandwidth=int(pcie.max_bandwidth))
    assert as_int == pcie
    compression = PAPER_SYSTEM.compression
    systems = [
        PAPER_SYSTEM,
        dataclasses.replace(PAPER_SYSTEM),
        PAPER_SYSTEM.with_gpu_memory(6 << 30),
        PAPER_SYSTEM.with_gpu_memory(6 << 30),
        PAPER_SYSTEM.with_oracular_gpu(),
        dataclasses.replace(PAPER_SYSTEM, pcie=dataclasses.replace(
            pcie, dma_bandwidth=pcie.dma_bandwidth / 2)),
        dataclasses.replace(PAPER_SYSTEM, pcie=as_int),
        dataclasses.replace(PAPER_SYSTEM, compression=dataclasses.replace(
            compression, min_ratio=compression.min_ratio * 2)),
    ]
    points = [partial(vdnn_key, network, system, TransferPolicy.vdnn_comp(),
                      algos) for system in systems]
    assert_keys_partition_as_digests(points)


@pytest.fixture
def enabled_cache(monkeypatch):
    monkeypatch.delenv(ENV_DISABLE, raising=False)
    yield configure_cache()
    set_cache(None)


def test_cache_holds_no_network(enabled_cache):
    """A dropped zoo network is collected while its results stay
    cached, and its recipe rebuilt hits them."""
    network = build("alexnet", 3)
    evaluate(network, PAPER_SYSTEM, "all", "m")
    evaluate(network, PAPER_SYSTEM, "dyn")
    dropped = weakref.ref(network)
    del network
    gc.collect()
    assert dropped() is None
    stored = len(enabled_cache)
    assert stored > 0
    hits = enabled_cache.stats.hits
    evaluate(build("alexnet", 3), PAPER_SYSTEM, "all", "m")
    evaluate(build("alexnet", 3), PAPER_SYSTEM, "dyn")
    assert enabled_cache.stats.hits == hits + 2
    assert len(get_cache()) == stored
