"""The compile path against its quadratic reference implementations.

``CompiledPlan`` buckets each backward step's gradient allocations and
releases in one pass over the storages, and ``Network`` topo-sorts with
a queued-name set.  Both replaced per-step / per-layer list scans; the
scans live on here as oracles, and every zoo graph plus random fork/join
graphs must compile to exactly the same order (free order shapes the
pool's hole structure, so "same set" is not enough).

Also pinned: the plan cache keys on GPU throughput, not capacity, and
still lets a dropped network take its plans with it.  A cached plan is
the network's base plan or an overlay of it; whatever order the cache
is filled in, every plan equals a constructor-built one slot by slot,
and overlays share the base's records and unchanged steps.
"""

import gc
import weakref
from dataclasses import replace
from types import SimpleNamespace
from typing import Dict, List, Tuple

import pytest
from hypothesis import given, settings

from repro.core import AlgoConfig, LivenessAnalysis
from repro.core.dynamic import _greedy_downgrade
from repro.core.plan import _PLANS, CompiledPlan, StorageRecord, \
    compiled_plan
from repro.graph import Conv2D, EltwiseAdd, Input, Network, Softmax
from repro.graph.layer import Layer, LayerKind
from repro.hw import PAPER_SYSTEM
from repro.zoo import available, build

from test_properties import random_dag_network

ALGOS = {"m": AlgoConfig.memory_optimal, "p": AlgoConfig.performance_optimal}


# ----------------------------------------------------------------------
# Reference implementations (the pre-bucketing O(L·S) / O(L²) scans)
# ----------------------------------------------------------------------
def _scan_grad_allocs(liveness: LivenessAnalysis, index: int) -> List[int]:
    return [s.owner for s in liveness.all_storages()
            if s.needs_gradient and s.gradient_alloc_at == index]


def _scan_releases(liveness: LivenessAnalysis,
                   index: int) -> List[Tuple[int, bool]]:
    releases: List[Tuple[int, bool]] = []
    for storage in liveness.all_storages():
        if storage.needed_backward \
                and storage.backward_release_after == index:
            releases.append((storage.owner, False))
        if storage.needs_gradient \
                and storage.gradient_release_after == index:
            releases.append((storage.owner, True))
    return releases


def _list_scan_kahn(layers: List[Layer]) -> List[str]:
    remaining = {layer.name: set(layer.inputs) for layer in layers}
    ordered: List[Layer] = []
    ready = [l for l in layers if not remaining[l.name]]
    consumers: Dict[str, List[Layer]] = {l.name: [] for l in layers}
    for layer in layers:
        for dep in layer.inputs:
            consumers[dep].append(layer)
    while ready:
        layer = ready.pop(0)
        ordered.append(layer)
        for consumer in consumers[layer.name]:
            deps = remaining[consumer.name]
            deps.discard(layer.name)
            if not deps and consumer not in ready \
                    and consumer not in ordered:
                ready.append(consumer)
    return [l.name for l in ordered]


def _assert_backward_matches_scan(network: Network,
                                  plan: CompiledPlan) -> None:
    liveness = LivenessAnalysis(network)
    assert [s.index for s in plan.backward] == network.backward_schedule()
    for step in plan.backward:
        assert step.releases == tuple(_scan_releases(liveness, step.index))
        assert step.grad_allocs == tuple(
            plan.records[o] for o in _scan_grad_allocs(liveness, step.index))


# ----------------------------------------------------------------------
# Slot-by-slot plan comparison
# ----------------------------------------------------------------------
def _value(value):
    """A plan field with each StorageRecord replaced by its owner (two
    plans compiled apart hold equal records, not the same objects)."""
    if isinstance(value, StorageRecord):
        return ("record", value.owner)
    if isinstance(value, tuple):
        return tuple(_value(item) for item in value)
    return value


def _slots(obj) -> dict:
    return {name: _value(getattr(obj, name)) for name in type(obj).__slots__}


def assert_plans_equal(got: CompiledPlan, want: CompiledPlan) -> None:
    """Every slot of ``got`` equals ``want``'s; steps and records field by
    field.  The offload-set cache is skipped: it fills with use."""
    for name in CompiledPlan.__slots__:
        mine, theirs = getattr(got, name), getattr(want, name)
        if name in ("forward", "backward", "persistent"):
            assert [_slots(s) for s in mine] == [_slots(s) for s in theirs], \
                name
        elif name in ("forward_at", "records"):
            assert {k: _slots(v) for k, v in mine.items()} == \
                {k: _slots(v) for k, v in theirs.items()}, name
        elif name != "_offload_sets":
            assert mine == theirs, name
    assert all(got.forward_at[step.index] is step for step in got.forward)


def _downgrade_chain(network: Network, probes: int = 13) -> List[AlgoConfig]:
    """The algos the greedy ladder probes, in order, through the cache:
    performance-optimal, then up to ``probes - 1`` one-layer downgrades."""
    seen: List[AlgoConfig] = []

    def probe(_subject, algos, _description):
        compiled_plan(network, PAPER_SYSTEM, algos)
        seen.append(algos.copy())
        return SimpleNamespace(trainable=len(seen) == probes)

    _greedy_downgrade(network, probe, None, "dyn", "probe")
    return seen


def _private_copy(network: Network) -> Network:
    """A new network of ``network``'s layers: no other holder shares it,
    so its plan cache starts empty."""
    return Network(network.name, [node.layer for node in network])


def _assert_cache_orders_match_constructor(make_network) -> None:
    """m→p, p→m and p→greedy chain, each from a fresh cache.

    ``make_network()`` must return a new network on every call; the
    ones made are held, so an identity check proves it."""
    made: List[Network] = []

    def fresh() -> Network:
        network = make_network()
        assert all(network is not old for old in made)
        assert network not in _PLANS
        made.append(network)
        return network

    for order in (("m", "p"), ("p", "m")):
        network = fresh()
        for label in order:
            algos = ALGOS[label](network)
            assert_plans_equal(compiled_plan(network, PAPER_SYSTEM, algos),
                               CompiledPlan(network, PAPER_SYSTEM, algos))
    network = fresh()
    for algos in _downgrade_chain(network):
        assert_plans_equal(compiled_plan(network, PAPER_SYSTEM, algos),
                           CompiledPlan(network, PAPER_SYSTEM, algos))


@pytest.fixture(scope="module")
def zoo() -> Dict[str, Network]:
    return {name: build(name) for name in available()}


# ----------------------------------------------------------------------
# Backward compile == per-step scan
# ----------------------------------------------------------------------
@pytest.mark.parametrize("algo", sorted(ALGOS))
def test_zoo_backward_schedule_matches_scan(zoo, algo):
    for network in zoo.values():
        plan = CompiledPlan(network, PAPER_SYSTEM, ALGOS[algo](network))
        _assert_backward_matches_scan(network, plan)


@settings(max_examples=25, deadline=None)
@given(network=random_dag_network())
def test_random_dag_backward_schedule_matches_scan(network):
    for make in ALGOS.values():
        plan = CompiledPlan(network, PAPER_SYSTEM, make(network))
        _assert_backward_matches_scan(network, plan)


# ----------------------------------------------------------------------
# Base plus overlays == constructor, in any cache order
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", available())
def test_zoo_cached_plans_match_constructor(name):
    # build() shares a recipe's live network, and the module's ``zoo``
    # fixture holds one per recipe, so each order takes a private copy.
    _assert_cache_orders_match_constructor(lambda: _private_copy(build(name)))


@settings(max_examples=15, deadline=None)
@given(network=random_dag_network())
def test_random_dag_cached_plans_match_constructor(network):
    _assert_cache_orders_match_constructor(lambda: _private_copy(network))


def test_m_and_p_plans_share_records_and_non_conv_steps():
    network = build("googlenet", 8)
    m = compiled_plan(network, PAPER_SYSTEM, AlgoConfig.memory_optimal(network))
    p = compiled_plan(network, PAPER_SYSTEM,
                      AlgoConfig.performance_optimal(network))
    assert p is not m
    assert all(p.records[owner] is rec for owner, rec in m.records.items())
    assert p.persistent is m.persistent
    for mine, theirs in zip(m.forward + m.backward, p.forward + p.backward):
        if network[mine.index].kind is not LayerKind.CONV:
            assert mine is theirs
        elif mine.ws_bytes != theirs.ws_bytes:
            assert mine is not theirs

    fresh = CompiledPlan(network, PAPER_SYSTEM,
                         AlgoConfig.performance_optimal(network))
    cached = {id(obj) for plan in (m, p)
              for obj in plan.forward + plan.backward + plan.persistent
              + tuple(plan.records.values())}
    assert not cached & {id(obj) for obj in fresh.forward + fresh.backward
                         + fresh.persistent + tuple(fresh.records.values())}


# ----------------------------------------------------------------------
# Topological order == list-scan Kahn
# ----------------------------------------------------------------------
def test_zoo_topological_order_matches_list_scan(zoo):
    for network in zoo.values():
        layers = [node.layer for node in network]
        # Reversed declaration order makes Kahn do real reordering.
        for given_order in (layers, layers[::-1]):
            ordered = Network._topological_order(list(given_order))
            assert [l.name for l in ordered] == \
                _list_scan_kahn(list(given_order))


def test_duplicate_input_is_ordered_once():
    layers = [
        Softmax("s", inputs=["sum"]),
        EltwiseAdd("sum", inputs=["c", "c"]),
        Conv2D("c", inputs=["in"], out_channels=4, kernel=3, pad=1),
        Conv2D("d", inputs=["in"], out_channels=4, kernel=3, pad=1),
        Input("in", shape=(2, 3, 8, 8)),
    ]
    ordered = [l.name for l in Network._topological_order(layers)]
    assert ordered == _list_scan_kahn(layers) == ["in", "c", "d", "sum", "s"]


# ----------------------------------------------------------------------
# Plan cache: capacity-free keys, weak network references
# ----------------------------------------------------------------------
def test_capacity_variants_share_one_plan():
    network = build("alexnet", 32)
    algos = AlgoConfig.memory_optimal(network)
    plan = compiled_plan(network, PAPER_SYSTEM, algos)
    assert compiled_plan(
        network, PAPER_SYSTEM.with_oracular_gpu(), algos) is plan
    assert compiled_plan(
        network, PAPER_SYSTEM.with_gpu_memory(2 << 30), algos) is plan


@pytest.mark.parametrize("field", [
    "peak_flops", "dram_bandwidth",
    "compute_efficiency", "bandwidth_efficiency"])
def test_throughput_fields_get_distinct_plans(field):
    network = build("alexnet", 32)
    algos = AlgoConfig.memory_optimal(network)
    plan = compiled_plan(network, PAPER_SYSTEM, algos)
    gpu = PAPER_SYSTEM.gpu
    changed = replace(gpu, **{field: getattr(gpu, field) / 2})
    other = compiled_plan(network, replace(PAPER_SYSTEM, gpu=changed), algos)
    assert other is not plan


def _live_plans() -> int:
    gc.collect()
    return sum(isinstance(obj, CompiledPlan) for obj in gc.get_objects())


def test_dropped_network_frees_its_plans():
    # zoo.build shares a recipe's network with every holder, so this
    # test needs a recipe no other test keeps alive.
    before, plans_before = len(_PLANS), _live_plans()
    network = build("alexnet", 12)
    algos = AlgoConfig.memory_optimal(network)
    compiled_plan(network, PAPER_SYSTEM, algos)
    compiled_plan(network, PAPER_SYSTEM.with_oracular_gpu(), algos)
    compiled_plan(network, PAPER_SYSTEM,
                  AlgoConfig.performance_optimal(network))
    assert len(_PLANS) == before + 1
    assert _live_plans() == plans_before + 2   # the base and one overlay
    alive = weakref.ref(network)
    del network, algos
    gc.collect()
    assert alive() is None
    assert len(_PLANS) == before
    assert _live_plans() == plans_before
