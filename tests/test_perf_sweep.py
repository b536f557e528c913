"""Tests for the parallel sweep executor and its bit-identical contract."""

import pytest

from repro.cli import main
from repro.core import compare_policies, evaluate
from repro.core.api import POINT_POLICIES
from repro.hw import PAPER_SYSTEM
from repro.perf import SweepPoint, configure_cache, get_cache, set_cache, sweep
from repro.perf.cache import ENV_DISABLE
from repro.perf.sweep import _simulate_point, point_key, resolve_jobs
from repro.zoo import build


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    # The tests assert hits and stores, so they enable the cache
    # whatever REPRO_NO_CACHE says.
    monkeypatch.delenv(ENV_DISABLE, raising=False)
    cache = configure_cache()
    yield cache
    set_cache(None)


class TestSweepPoint:
    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            SweepPoint(network="alexnet", policy="bogus")

    def test_invalid_algo_rejected(self):
        with pytest.raises(ValueError, match="algo"):
            SweepPoint(network="alexnet", policy="all", algo="x")

    def test_zoo_key_and_prebuilt_network_share_a_cache_key(self):
        by_key = SweepPoint(network="alexnet", batch=16, policy="all",
                            algo="m")
        by_object = SweepPoint(network=build("alexnet", 16), policy="all",
                               algo="m")
        assert point_key(by_key) == point_key(by_object)

    def test_resolve_jobs(self, monkeypatch):
        assert resolve_jobs(4) == 4
        assert resolve_jobs(0) == 1
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert resolve_jobs() == 3
        monkeypatch.delenv("REPRO_JOBS")
        assert resolve_jobs() == 1

    def test_non_integer_jobs_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "two")
        with pytest.raises(ValueError, match="REPRO_JOBS='two'"):
            resolve_jobs()


class TestKeyParity:
    @pytest.mark.parametrize("algo", ["m", "p"])
    @pytest.mark.parametrize("policy", POINT_POLICIES)
    def test_serial_simulation_stores_under_point_key(self, policy, algo):
        point = SweepPoint(network="alexnet", batch=8, policy=policy,
                           algo=algo)
        _simulate_point(point)
        assert point_key(point) in get_cache()


class TestSerialSweep:
    def test_matches_per_point_evaluate(self):
        points = [
            SweepPoint(network="alexnet", batch=8, policy="all", algo="m"),
            SweepPoint(network="alexnet", batch=8, policy="base", algo="p"),
            SweepPoint(network="alexnet", batch=8, policy="dyn"),
        ]
        results = sweep(points, jobs=1)
        network = build("alexnet", 8)
        assert results[0] == evaluate(network, PAPER_SYSTEM, "all", "m",
                                      use_cache=False)
        assert results[1] == evaluate(network, PAPER_SYSTEM, "base", "p",
                                      use_cache=False)
        assert results[2] == evaluate(network, PAPER_SYSTEM, "dyn",
                                      use_cache=False)


class TestParallelSweep:
    POINTS = [
        SweepPoint(network="alexnet", batch=8, policy=policy, algo=algo)
        for policy, algo in (("all", "m"), ("all", "p"),
                             ("conv", "m"), ("base", "p"))
    ]

    def test_parallel_equals_serial(self):
        serial = sweep(self.POINTS, jobs=1)
        configure_cache()
        parallel = sweep(self.POINTS, jobs=2)
        assert serial == parallel

    def test_parallel_sweep_warms_the_parent_cache(self):
        sweep(self.POINTS, jobs=2)
        cache = get_cache()
        assert all(point_key(p) in cache for p in self.POINTS)
        hits_before = cache.stats.hits
        network = build("alexnet", 8)
        evaluate(network, PAPER_SYSTEM, "all", "m")
        assert cache.stats.hits == hits_before + 1

    def test_cached_points_do_not_fan_out_again(self):
        sweep(self.POINTS, jobs=2)
        stores_before = get_cache().stats.stores
        again = sweep(self.POINTS, jobs=2)
        assert get_cache().stats.stores == stores_before
        assert again == sweep(self.POINTS, jobs=1)

    def test_hybrid_policy_round_trips(self):
        point = SweepPoint(network="alexnet", batch=8, policy="hybrid",
                           algo="m")
        serial = sweep([point, self.POINTS[0]], jobs=1)
        configure_cache()
        parallel = sweep([point, self.POINTS[0]], jobs=2)
        assert serial == parallel


class TestFigureParity:
    def test_fig11_rows_identical_serial_vs_parallel(self):
        from repro.reporting.figures import fig11_memory_usage

        networks = [build("alexnet", 16)]
        serial = fig11_memory_usage(networks)
        configure_cache()
        parallel = fig11_memory_usage(networks, jobs=2)
        assert serial.rows == parallel.rows

    def test_compare_policies_identical_serial_vs_parallel(self):
        network = build("alexnet", 8)
        serial = compare_policies(network, jobs=1)
        configure_cache()
        parallel = compare_policies(network, jobs=2)
        assert serial == parallel


class TestCli:
    def test_sweep_accepts_jobs_flag(self, capsys):
        assert main(["sweep", "alexnet", "--batch", "8", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "policy sweep" in out
        assert "all(m)" in out
