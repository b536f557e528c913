"""Tests for the high-level evaluate/compare_policies API."""

import pytest

from repro.analysis.static_plan import verify_point_static
from repro.analysis.verify import verify_point
from repro.cluster.dataparallel import (simulate_cluster_iteration,
                                       worker_results)
from repro.core import compare_policies, evaluate, oracular_baseline
from repro.hw import pcie_switch_tree
from repro.perf import configure_cache, set_cache

from conftest import make_linear_cnn


class TestEvaluate:
    def test_policy_strings(self, linear_cnn):
        for policy in ("all", "conv", "none", "base", "dyn"):
            result = evaluate(linear_cnn, policy=policy)
            assert result.trainable

    def test_invalid_policy_rejected(self, linear_cnn):
        with pytest.raises(ValueError, match="policy"):
            evaluate(linear_cnn, policy="bogus")

    def test_invalid_algo_rejected(self, linear_cnn):
        with pytest.raises(ValueError, match="algo"):
            evaluate(linear_cnn, policy="all", algo="q")

    def test_default_system_is_paper_testbed(self, linear_cnn):
        result = evaluate(linear_cnn, policy="base", algo="m")
        assert result.trainable  # tiny network on a 12 GB card

    def test_algo_label_propagates(self, linear_cnn):
        assert evaluate(linear_cnn, policy="all", algo="m").algo_label == "m"
        assert evaluate(linear_cnn, policy="all", algo="p").algo_label == "p"

    def test_base_ignores_offload_machinery(self, linear_cnn):
        result = evaluate(linear_cnn, policy="base", algo="p")
        assert result.offload_bytes == 0


class TestComparePolicies:
    def test_returns_paper_column_labels(self, linear_cnn):
        sweep = compare_policies(linear_cnn)
        assert set(sweep) == {"all(m)", "all(p)", "conv(m)", "conv(p)",
                              "comp(m)", "comp(p)", "dyn", "joint",
                              "base(m)", "base(p)"}

    def test_dynamic_excludable(self, linear_cnn):
        sweep = compare_policies(linear_cnn, include_dynamic=False)
        assert "dyn" not in sweep
        assert "joint" not in sweep

    def test_memory_ordering_invariant(self, linear_cnn):
        sweep = compare_policies(linear_cnn, include_dynamic=False)
        assert sweep["all(m)"].avg_usage_bytes <= \
            sweep["conv(m)"].avg_usage_bytes <= \
            sweep["base(m)"].avg_usage_bytes


class TestOracularBaseline:
    def test_always_trainable(self, linear_cnn):
        assert oracular_baseline(linear_cnn).trainable

    def test_same_speed_as_fitting_baseline(self, linear_cnn):
        # For a network that fits, the oracle is just baseline(p).
        oracle = oracular_baseline(linear_cnn)
        base = evaluate(linear_cnn, policy="base", algo="p")
        assert oracle.total_time == pytest.approx(base.total_time)


#: Every entry point that takes a policy or algo label from a caller.
_LABELED = {
    "evaluate": lambda net, policy, algo: evaluate(net, policy=policy,
                                                   algo=algo),
    "verify_point": verify_point,
    "verify_point_static": verify_point_static,
}
class TestLabelBoundary:
    """A bad label fails at the boundary with evaluate's ValueError:
    never a bare KeyError, and never a silent fallback to another point."""

    @pytest.mark.parametrize("entry, policy, algo, match", [
        *((name, "bogus", "p", "policy") for name in _LABELED),
        *((name, "hybrid", "m", "policy") for name in _LABELED),
        *((name, "all", "x", "algo") for name in _LABELED),
        *((name, "base", "x", "algo") for name in _LABELED),
    ])
    def test_bad_label_raises_value_error(self, linear_cnn, entry, policy,
                                          algo, match):
        with pytest.raises(ValueError, match=match):
            _LABELED[entry](linear_cnn, policy, algo)

    @pytest.mark.parametrize("entry", [simulate_cluster_iteration,
                                       worker_results])
    def test_bad_rung_raises_value_error(self, entry):
        with pytest.raises(ValueError, match="unknown ladder rung"):
            entry("alexnet", 8, 1, pcie_switch_tree(1), rung="bogus")


class TestWarmAdoptedPoints:
    @pytest.fixture(autouse=True)
    def fresh_cache(self):
        configure_cache()
        yield
        set_cache(None)

    @pytest.mark.parametrize("policy", ["dyn", "joint"])
    def test_warm_call_runs_no_ladder_probe(self, linear_cnn, monkeypatch,
                                            policy):
        cold = evaluate(linear_cnn, policy=policy)

        def probe(self):
            raise AssertionError("a ladder probe ran on a warm call")

        monkeypatch.setattr("repro.core.interpret._PlanInterpreter.run",
                            probe)
        assert evaluate(linear_cnn, policy=policy) == cold
