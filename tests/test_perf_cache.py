"""Cache-correctness tests: hits must be value-equal to fresh runs.

The contract under test is the one that makes every figure reproducible
with caching on: for any (network, policy, algo) point, the cached
result equals a from-scratch simulation, and the cache can always be
bypassed (``use_cache=False`` / ``REPRO_NO_CACHE=1``).
"""

import os

import pytest

from repro.core import evaluate
from repro.core.api import point_key, resolve_point
from repro.hw import PAPER_SYSTEM
from repro.perf import (SimulationCache, SweepPoint, configure_cache,
                        get_cache, set_cache, sweep)
from repro.perf.cache import ENV_DISABLE, ENV_SIZE, cache_enabled
from repro.perf.fingerprint import lookup_key
from repro.zoo import build


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    """Each test gets an empty, enabled process-wide cache."""
    # The tests assert hits and stores, so they enable the cache
    # whatever REPRO_NO_CACHE says.
    monkeypatch.delenv(ENV_DISABLE, raising=False)
    cache = configure_cache()
    yield cache
    set_cache(None)


NETWORKS = ("alexnet", "vgg16", "googlenet", "resnet18")
CONFIGS = [(policy, algo) for policy in ("all", "conv", "base")
           for algo in ("m", "p")] + [("dyn", "p")]


@pytest.mark.parametrize("name", NETWORKS)
@pytest.mark.parametrize("policy,algo", CONFIGS)
def test_cached_result_equals_fresh_simulation(name, policy, algo):
    network = build(name, 8)
    fresh = evaluate(network, PAPER_SYSTEM, policy, algo, use_cache=False)
    cold = evaluate(network, PAPER_SYSTEM, policy, algo)   # populates
    warm = evaluate(network, PAPER_SYSTEM, policy, algo)   # replays
    assert cold == fresh
    assert warm == fresh
    assert get_cache().stats.hits >= 1


def test_use_cache_false_bypasses_the_cache():
    network = build("alexnet", 8)
    evaluate(network, PAPER_SYSTEM, "all", "m", use_cache=False)
    stats = get_cache().stats
    assert stats.hits == 0 and stats.misses == 0 and stats.stores == 0


def test_env_var_disables_the_cache(monkeypatch):
    monkeypatch.setenv(ENV_DISABLE, "1")
    assert not cache_enabled()
    network = build("alexnet", 8)
    result = evaluate(network, PAPER_SYSTEM, "all", "m")
    assert result.trainable
    stats = get_cache().stats
    assert stats.hits == 0 and stats.misses == 0 and stats.stores == 0
    monkeypatch.setenv(ENV_DISABLE, "0")
    assert cache_enabled()


def test_non_integer_size_env_names_the_variable(monkeypatch):
    monkeypatch.setenv(ENV_SIZE, "big")
    with pytest.raises(ValueError, match="REPRO_CACHE_SIZE='big'"):
        SimulationCache()
    monkeypatch.setenv(ENV_SIZE, "3")
    assert SimulationCache().max_entries == 3


def test_explicit_flag_overrides_env(monkeypatch):
    monkeypatch.setenv(ENV_DISABLE, "1")
    assert cache_enabled(True)
    monkeypatch.delenv(ENV_DISABLE)
    assert not cache_enabled(False)


def test_hits_are_mutation_isolated():
    network = build("alexnet", 8)
    first = evaluate(network, PAPER_SYSTEM, "all", "m")
    first.policy_label = "tampered"
    second = evaluate(network, PAPER_SYSTEM, "all", "m")
    assert second.policy_label != "tampered"


def test_lru_evicts_oldest_entry():
    cache = SimulationCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    cache.put("c", 3)
    assert cache.get("a") is None          # evicted
    assert cache.get("b") == 2
    assert cache.get("c") == 3
    assert cache.stats.evictions == 1


def test_lru_recency_is_updated_on_get():
    cache = SimulationCache(max_entries=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1             # refresh "a"
    cache.put("c", 3)                      # evicts "b", not "a"
    assert cache.get("a") == 1
    assert cache.get("b") is None


def test_disk_tier_survives_a_new_cache(tmp_path):
    disk = str(tmp_path / "simcache")
    first = SimulationCache(max_entries=8, disk_dir=disk)
    first.put(("key",), {"answer": 42}, name=lambda: "digest")
    assert os.listdir(disk) == ["digest.pkl"]
    second = SimulationCache(max_entries=8, disk_dir=disk)
    assert second.get(("key",), lambda: "digest") == {"answer": 42}
    assert second.stats.disk_hits == 1
    # Promoted into memory: the next read is an in-memory hit.
    assert second.get(("key",)) == {"answer": 42}
    assert second.stats.hits >= 1


def test_entries_without_a_name_stay_in_memory(tmp_path):
    disk = tmp_path / "simcache"
    cache = SimulationCache(max_entries=8, disk_dir=str(disk))
    cache.put(("ladder",), 1)
    assert cache.get(("ladder",)) == 1
    assert not disk.exists()

    def unnamed():
        raise AssertionError("the name is made only for the disk tier")

    memory_only = SimulationCache(max_entries=8)
    memory_only.put(("key",), 2, unnamed)
    assert memory_only.get(("key",), unnamed) == 2
    assert memory_only.get(("absent",), unnamed) is None


def test_get_or_compute_computes_once():
    cache = SimulationCache(max_entries=8)
    calls = []

    def compute():
        calls.append(1)
        return "value"

    assert cache.get_or_compute("k", compute) == "value"
    assert cache.get_or_compute("k", compute) == "value"
    assert len(calls) == 1


class TestCopyContract:
    """The cache keeps each result live and hands out copies that share
    its sealed logs: a caller's changes never reach the next hit."""

    @staticmethod
    def tamper(result):
        result.policy_label = "tampered"
        result.total_time = -1.0
        result.offloaded_layers.append(999)
        result.weight_load_bytes[999] = 1

    def test_changing_a_miss_or_a_hit_never_reaches_the_next_hit(self):
        network = build("alexnet", 8)
        fresh = evaluate(network, PAPER_SYSTEM, "all", "m", use_cache=False)
        assert fresh.offloaded_layers        # a list worth tampering with
        miss = evaluate(network, PAPER_SYSTEM, "all", "m")
        self.tamper(miss)
        hit = evaluate(network, PAPER_SYSTEM, "all", "m")
        assert hit == fresh
        self.tamper(hit)
        again = evaluate(network, PAPER_SYSTEM, "all", "m")
        assert again == fresh
        assert again.weight_load_bytes == {}
        assert get_cache().stats.hits == 2
        # What the copies share is the read-only logs.
        assert again.timeline is hit.timeline and again.timeline.sealed
        assert again.usage is hit.usage and again.usage.sealed

    def test_dyn_relabel_leaves_the_adopted_column_alone(self):
        # At 720 MB vDNN_dyn adopts conv(p), so both labels share the
        # conv(p) entry.
        network = build("alexnet", 8)
        system = PAPER_SYSTEM.with_gpu_memory(720 * 10 ** 6)
        conv = resolve_point(network, system, "conv", "p")
        dyn_point = resolve_point(network, system, "dyn")
        assert dyn_point.key(lookup_key) == conv.key(lookup_key)
        fresh_conv = conv.simulate()

        dyn = evaluate(network, system, "dyn")
        assert dyn.policy_label == "vDNN_dyn"
        hits = get_cache().stats.hits
        column = evaluate(network, system, "conv", "p")
        assert get_cache().stats.hits == hits + 1
        assert column == fresh_conv
        assert column.policy_label == fresh_conv.policy_label != "vDNN_dyn"
        # ``relabel`` itself returns a copy and leaves its argument alone.
        relabelled = dyn_point.relabel(column)
        assert relabelled is not column
        assert relabelled.policy_label == "vDNN_dyn"
        assert column.policy_label == fresh_conv.policy_label

    def test_a_result_read_from_disk_equals_a_fresh_simulation(
            self, tmp_path):
        network = build("alexnet", 8)
        fresh = evaluate(network, PAPER_SYSTEM, "dyn", use_cache=False)
        set_cache(SimulationCache(disk_dir=str(tmp_path)))
        evaluate(network, PAPER_SYSTEM, "dyn")
        reader = SimulationCache(disk_dir=str(tmp_path))
        set_cache(reader)
        from_disk = evaluate(network, PAPER_SYSTEM, "dyn")
        assert reader.stats.disk_hits == 1
        assert from_disk == fresh
        assert from_disk.timeline.sealed and from_disk.usage.sealed

    def test_a_result_warmed_by_a_parallel_sweep_equals_a_fresh_one(self):
        network = build("alexnet", 8)
        points = [SweepPoint(network="alexnet", batch=8, policy=policy,
                             algo=algo)
                  for policy, algo in (("all", "m"), ("dyn", "p"))]
        warmed = sweep(points, jobs=2)
        hits = get_cache().stats.hits
        for (policy, algo), result in zip((("all", "m"), ("dyn", "p")),
                                          warmed):
            fresh = evaluate(network, PAPER_SYSTEM, policy, algo,
                             use_cache=False)
            assert result == fresh
            assert evaluate(network, PAPER_SYSTEM, policy, algo) == fresh
        assert get_cache().stats.hits == hits + 2

    def test_an_evicted_key_misses(self):
        network = build("alexnet", 8)
        set_cache(SimulationCache(max_entries=1))
        first = evaluate(network, PAPER_SYSTEM, "all", "m")
        evaluate(network, PAPER_SYSTEM, "conv", "m")     # evicts all(m)
        cache = get_cache()
        key = point_key(network, PAPER_SYSTEM, "all", "m")
        assert cache.stats.evictions == 1
        assert key not in cache and len(cache) == 1
        assert cache.get(key) is None
        misses = cache.stats.misses
        assert evaluate(network, PAPER_SYSTEM, "all", "m") == first
        assert cache.stats.misses == misses + 1
