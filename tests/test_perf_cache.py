"""Cache-correctness tests: hits must be value-equal to fresh runs.

The contract under test is the one that makes every figure reproducible
with caching on: for any (network, policy, algo) point, the cached
result equals a from-scratch simulation, and the cache can always be
bypassed (``use_cache=False`` / ``REPRO_NO_CACHE=1``).
"""

import pytest

from repro.core import evaluate
from repro.hw import PAPER_SYSTEM
from repro.perf import SimulationCache, configure_cache, get_cache, set_cache
from repro.perf.cache import ENV_DISABLE, ENV_SIZE, cache_enabled
from repro.zoo import build


@pytest.fixture(autouse=True)
def fresh_cache():
    """Each test gets an empty process-wide cache."""
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
    first.put("key", {"answer": 42})
    second = SimulationCache(max_entries=8, disk_dir=disk)
    assert second.get("key") == {"answer": 42}
    assert second.stats.disk_hits == 1
    # Promoted into memory: the next read is an in-memory hit.
    assert second.get("key") == {"answer": 42}
    assert second.stats.hits >= 1


def test_get_or_compute_computes_once():
    cache = SimulationCache(max_entries=8)
    calls = []

    def compute():
        calls.append(1)
        return "value"

    assert cache.get_or_compute("k", compute) == "value"
    assert cache.get_or_compute("k", compute) == "value"
    assert len(calls) == 1
