"""Tests for the online serving subsystem (arrivals, layering, server,
report, CLI) plus the inference-validation satellite it shares
accounting with."""

import json

import pytest

from repro.cli import main
from repro.core import AlgoConfig, simulate_inference, weight_load_bytes
from repro.faults import FaultSpec
from repro.graph import LayerKind
from repro.hw import PAPER_SYSTEM, SystemConfig
from repro.kernels.latency import LatencyModel
from repro.serve import (
    ArrivalSpec,
    ArrivalSpecError,
    ModelSpec,
    ServeConfig,
    ServeConfigError,
    ServePlanError,
    activation_peak_bytes,
    generate_requests,
    parse_models,
    plan_service,
    serve_json,
    serve_report,
    shrink_window,
    simulate_serving,
)
from repro.serve.layering import resident_footprint_bytes, \
    streamed_layer_bytes
from repro.zoo import available, build

MIB = 1 << 20
GIB = 1 << 30


def _small_scenario(**overrides):
    defaults = dict(
        models=tuple(parse_models("googlenet,alexnet")),
        arrivals=ArrivalSpec.parse("poisson:rate=50,seed=3"),
        requests=60,
        budget_bytes=1 * GIB,
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


# ----------------------------------------------------------------------
# Arrival processes
# ----------------------------------------------------------------------
class TestArrivals:
    def test_poisson_parse_roundtrip(self):
        spec = ArrivalSpec.parse("poisson:rate=200,seed=7")
        assert spec.rate == 200.0 and spec.seed == 7
        assert ArrivalSpec.parse(spec.label) == spec

    def test_generate_is_deterministic_and_ascending(self):
        spec = ArrivalSpec.parse("poisson:rate=100,seed=5")
        first, second = spec.generate(200), spec.generate(200)
        assert first == second
        assert all(a < b for a, b in zip(first, first[1:]))

    def test_seed_changes_stream(self):
        base = ArrivalSpec.parse("poisson:rate=100,seed=0").generate(50)
        other = ArrivalSpec.parse("poisson:rate=100,seed=1").generate(50)
        assert base != other

    def test_trace_times(self):
        spec = ArrivalSpec.parse("trace:times=0;0.5;1.25")
        assert spec.generate(10) == [0.0, 0.5, 1.25]
        assert spec.generate(2) == [0.0, 0.5]

    def test_trace_file(self, tmp_path):
        path = tmp_path / "arrivals.txt"
        path.write_text("0.0\n0.25\n0.5\n")
        spec = ArrivalSpec.parse(f"trace:file={path}")
        assert spec.times == (0.0, 0.25, 0.5)

    def test_diurnal_and_burst_generate(self):
        diurnal = ArrivalSpec.parse(
            "diurnal:rate=20,peak=100,period=10,seed=1")
        burst = ArrivalSpec.parse("burst:rate=20,at=1,dur=2,x=10,seed=1")
        for spec in (diurnal, burst):
            times = spec.generate(100)
            assert len(times) == 100
            assert times == spec.generate(100)

    @pytest.mark.parametrize("bad", [
        "", "unknown:rate=1", "poisson:rate=0", "poisson:rate=1,bogus=2",
        "trace:", "trace:times=1;0.5", "diurnal:rate=10,peak=5",
        "burst:rate=10,x=0.5", "poisson:rate",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ArrivalSpecError):
            ArrivalSpec.parse(bad)

    def test_model_spec_priority(self):
        assert ModelSpec.parse("vgg16:3") == ModelSpec("vgg16", 3)
        assert ModelSpec.parse("alexnet") == ModelSpec("alexnet", 0)
        with pytest.raises(ArrivalSpecError):
            ModelSpec.parse("nonexistent")
        with pytest.raises(ArrivalSpecError):
            ModelSpec.parse("vgg16:high")
        with pytest.raises(ArrivalSpecError):
            parse_models("vgg16,vgg16")

    def test_request_stream_reuses_arrival_times(self):
        spec = ArrivalSpec.parse("poisson:rate=100,seed=9")
        one = generate_requests(spec, parse_models("vgg16"), 40)
        two = generate_requests(spec, parse_models("vgg16,alexnet"), 40)
        # Adding a model re-routes requests but never moves arrivals.
        assert [r.time for r in one] == [r.time for r in two]
        assert {r.model for r in two} <= {"vgg16", "alexnet"}


# ----------------------------------------------------------------------
# Demand-layering plans
# ----------------------------------------------------------------------
class TestServicePlan:
    def setup_method(self):
        self.network = build("alexnet", 1)
        self.algos = AlgoConfig.memory_optimal(self.network)
        self.system = SystemConfig()

    def _plan(self, residency, **kwargs):
        return plan_service(self.network, self.system, self.algos,
                            residency, **kwargs)

    def test_resident_never_streams(self):
        plan = self._plan("resident")
        assert plan.streamed_bytes == 0 and plan.dma_seconds == 0.0
        assert plan.persistent_bytes == plan.weight_bytes
        assert plan.service_seconds == plan.compute_seconds
        assert plan.cold_start_seconds > 0

    def test_layered_trades_footprint_for_latency(self):
        resident = self._plan("resident")
        layered = self._plan("layered", window_bytes=64 * MIB)
        assert layered.persistent_bytes == 0
        assert layered.streamed_bytes == layered.weight_bytes
        assert layered.footprint_bytes < resident.footprint_bytes
        assert layered.service_seconds > resident.service_seconds
        assert layered.service_seconds == pytest.approx(
            layered.compute_seconds + layered.stall_seconds)

    def test_window_monotonicity(self):
        big = self._plan("layered", window_bytes=512 * MIB)
        small = self._plan("layered", window_bytes=8 * MIB)
        assert small.window_bytes <= big.window_bytes
        assert small.stall_seconds >= big.stall_seconds
        assert small.footprint_bytes <= big.footprint_bytes

    def test_window_clamps_to_largest_layer(self):
        weights = weight_load_bytes(self.network)
        plan = self._plan("layered", window_bytes=1)
        assert plan.window_bytes >= max(weights.values())

    def test_pinned_respects_budget_and_helps(self):
        layered = self._plan("layered", window_bytes=32 * MIB)
        pinned = self._plan("pinned", window_bytes=32 * MIB,
                            pinned_bytes=100 * MIB)
        assert 0 < pinned.persistent_bytes <= 100 * MIB
        assert pinned.pinned_layers
        assert pinned.streamed_bytes < layered.streamed_bytes
        assert pinned.dma_seconds < layered.dma_seconds

    def test_shrink_window_shrinks_or_stops(self):
        plan = self._plan("layered", window_bytes=512 * MIB)
        smaller = shrink_window(self.network, self.system, self.algos, plan)
        assert smaller.window_bytes <= plan.window_bytes
        resident = self._plan("resident")
        assert shrink_window(self.network, self.system, self.algos,
                             resident) is resident

    def test_activation_peak_positive_and_batch_scaled(self):
        one = activation_peak_bytes(self.network, self.algos)
        big_net = build("alexnet", 8)
        big = activation_peak_bytes(big_net,
                                    AlgoConfig.memory_optimal(big_net))
        assert 0 < one < big

    def test_bad_inputs_rejected(self):
        with pytest.raises(ServePlanError):
            self._plan("nope")
        with pytest.raises(ServePlanError):
            self._plan("layered", window_bytes=0)


# ----------------------------------------------------------------------
# Plan-backed planner == liveness / latency-model reference
# ----------------------------------------------------------------------
def _layer_compute_seconds(network, system, algos):
    """Per-layer forward kernel seconds in schedule order (reference)."""
    latency = LatencyModel(system.gpu)
    seconds = []
    for index in network.forward_schedule():
        node = network[index]
        seconds.append(0.0 if node.kind is LayerKind.INPUT else
                       latency.forward(network, node,
                                       algos.profile(node)).seconds)
    return seconds


@pytest.mark.parametrize("algo", ["m", "p"])
def test_plan_service_matches_reference_on_zoo(algo):
    for name in available():
        network = build(name, 4)
        algos = (AlgoConfig.memory_optimal(network) if algo == "m"
                 else AlgoConfig.performance_optimal(network))
        expected_act = activation_peak_bytes(network, algos)
        expected_compute = sum(
            _layer_compute_seconds(network, PAPER_SYSTEM, algos))
        half = network.total_weight_bytes() // 2
        for residency in ("resident", "layered", "pinned"):
            plan = plan_service(network, PAPER_SYSTEM, algos, residency,
                                pinned_bytes=half)
            assert plan.activation_bytes == expected_act, (name, residency)
            assert plan.compute_seconds == expected_compute, (name, residency)


@pytest.mark.parametrize("algo", ["m", "p"])
def test_resident_footprint_matches_resident_plan_on_zoo(algo):
    for name in available():
        network = build(name, 1)
        algos = (AlgoConfig.memory_optimal(network) if algo == "m"
                 else AlgoConfig.performance_optimal(network))
        plan = plan_service(network, PAPER_SYSTEM, algos, "resident")
        assert resident_footprint_bytes(network, PAPER_SYSTEM, algos) \
            == plan.footprint_bytes, name


def test_auto_residency_plans_each_model_once(monkeypatch):
    """``auto`` decides resident vs. layered from the footprint alone,
    then builds the one plan it keeps: a layered model is never planned
    resident first."""
    from repro.serve import server

    planned = []
    real = server.plan_service

    def counting(network, system, algos, residency="resident", **kwargs):
        plan = real(network, system, algos, residency, **kwargs)
        planned.append((plan.model, residency))
        return plan

    monkeypatch.setattr(server, "plan_service", counting)
    config = ServeConfig(
        models=tuple(parse_models("vgg16:2,googlenet:1,alexnet")),
        arrivals=ArrivalSpec.parse("poisson:rate=10,seed=3"),
        requests=20, budget_bytes=1 * GIB)
    result = simulate_serving(config)
    assert planned == [(result.plans[spec.name].model,
                        result.plans[spec.name].residency)
                       for spec in config.models]
    assert {plan.residency for plan in result.plans.values()} \
        == {"resident", "layered"}


# ----------------------------------------------------------------------
# Ladder rung 1: the window floor
# ----------------------------------------------------------------------
@pytest.mark.parametrize("residency", ["layered", "pinned"])
@pytest.mark.parametrize("name", available())
def test_shrink_window_floor_property(name, residency):
    """Above the largest streamed layer a shrink strictly shrinks the
    window (to at most half or the floor); at that layer it returns an
    equal window.  The server skips floored models on this fact."""
    network = build(name, 1)
    algos = AlgoConfig.memory_optimal(network)
    pinned = network.total_weight_bytes() // 4 if residency == "pinned" \
        else 0
    plan = plan_service(network, PAPER_SYSTEM, algos, residency,
                        window_bytes=network.total_weight_bytes(),
                        pinned_bytes=pinned)
    floor = max(streamed_layer_bytes(network, plan).values())
    while plan.window_bytes > floor:
        smaller = shrink_window(network, PAPER_SYSTEM, algos, plan)
        assert smaller.pinned_layers == plan.pinned_layers
        assert (smaller.window_bytes
                <= max(plan.window_bytes // 2, floor)
                < plan.window_bytes), name
        plan = smaller
    assert plan.window_bytes == floor
    again = shrink_window(network, PAPER_SYSTEM, algos, plan)
    assert again.window_bytes == plan.window_bytes, name


def test_overload_replans_only_while_a_window_can_shrink(monkeypatch):
    """Rung 1 calls shrink_window at most MAX_WINDOW_SHRINKS times per
    streaming model, and never for a model that starts at its floor."""
    from repro.serve import server

    calls = {}
    real = server.shrink_window

    def counting(network, *args, **kwargs):
        calls[network.name] = calls.get(network.name, 0) + 1
        return real(network, *args, **kwargs)

    monkeypatch.setattr(server, "shrink_window", counting)
    config = ServeConfig(
        models=tuple(parse_models("vgg16:2,googlenet:1,alexnet")),
        arrivals=ArrivalSpec.parse("burst:rate=50,at=0.2,dur=2,x=20,seed=2"),
        requests=300, budget_bytes=1 * GIB, residency="layered")
    result = simulate_serving(config)
    assert result.window_shrinks > 0

    floored = []
    for spec in config.models:
        network = build(spec.name, config.batch)
        start = plan_service(network, SystemConfig(),
                             AlgoConfig.memory_optimal(network), "layered",
                             window_bytes=config.window_bytes)
        made = calls.get(network.name, 0)
        assert made <= server.MAX_WINDOW_SHRINKS, spec.name
        if start.window_bytes == max(weight_load_bytes(network).values()):
            floored.append(spec.name)
            assert made == 0, spec.name
    assert "vgg16" in floored
    assert sum(calls.values()) == result.window_shrinks


# ----------------------------------------------------------------------
# Inference-validation satellite (shared accounting)
# ----------------------------------------------------------------------
class TestInferenceValidation:
    def test_zoo_rejects_non_positive_batch(self):
        for batch in (0, -2):
            with pytest.raises(ValueError, match="must be positive"):
                build("alexnet", batch)

    def test_weight_load_bytes_matches_network_total(self):
        network = build("vgg16", 1)
        per_layer = weight_load_bytes(network)
        assert sum(per_layer.values()) == network.total_weight_bytes()
        assert all(nbytes > 0 for nbytes in per_layer.values())

    def test_inference_result_carries_weight_map(self):
        network = build("googlenet", 1)
        result = simulate_inference(network, PAPER_SYSTEM,
                                    AlgoConfig.memory_optimal(network))
        assert result.weight_load_bytes == weight_load_bytes(network)


# ----------------------------------------------------------------------
# The serving event loop
# ----------------------------------------------------------------------
class TestServer:
    def test_deterministic_per_scenario_and_seed(self):
        config = _small_scenario()
        first = json.dumps(serve_json(simulate_serving(config)),
                           sort_keys=True)
        second = json.dumps(serve_json(simulate_serving(config)),
                            sort_keys=True)
        assert first == second

    def test_faulted_runs_still_deterministic(self):
        config = _small_scenario(
            faults=FaultSpec.parse("dma=0.2,pcie=0.6,jitter=0.3"),
            fault_seed=11)
        first = json.dumps(serve_json(simulate_serving(config)),
                           sort_keys=True)
        second = json.dumps(serve_json(simulate_serving(config)),
                            sort_keys=True)
        assert first == second

    def test_outcomes_partition_the_stream(self):
        result = simulate_serving(_small_scenario())
        assert len(result.records) == result.config.requests
        assert (result.completed + result.shed + result.rejected
                == result.config.requests)
        rids = sorted(r.rid for r in result.records)
        assert rids == list(range(result.config.requests))

    def test_layered_serves_over_budget_set_resident_cannot(self):
        # vgg16's resident footprint (~573 MB) exceeds a 512 MiB budget;
        # its layered footprint (~416 MB) fits — the subsystem's reason
        # to exist, per the demand-layering papers.
        base = dict(models=tuple(parse_models("vgg16")),
                    arrivals=ArrivalSpec.parse("poisson:rate=10,seed=3"),
                    requests=30, budget_bytes=512 * MIB)
        resident = simulate_serving(ServeConfig(residency="resident",
                                                **base))
        layered = simulate_serving(ServeConfig(residency="layered",
                                               **base))
        assert resident.completed == 0
        assert resident.unservable == ("vgg16",)
        assert resident.rejected == 30
        assert layered.completed == 30 and not layered.unservable
        assert layered.pool_peak_bytes <= 512 * MIB

    def test_auto_residency_falls_back_to_layered(self):
        config = ServeConfig(models=tuple(parse_models("vgg16")),
                             arrivals=ArrivalSpec.parse(
                                 "poisson:rate=10,seed=3"),
                             requests=20, budget_bytes=512 * MIB)
        result = simulate_serving(config)
        assert result.plans["vgg16"].residency == "layered"
        assert result.completed == 20

    def test_layered_p99_inflation_is_bounded_in_budget(self):
        base = dict(models=tuple(parse_models("googlenet,resnet50")),
                    arrivals=ArrivalSpec.parse("poisson:rate=40,seed=5"),
                    requests=120, budget_bytes=2 * GIB)
        resident = serve_json(simulate_serving(
            ServeConfig(residency="resident", **base)))
        layered = serve_json(simulate_serving(
            ServeConfig(residency="layered", **base)))
        for model in ("googlenet", "resnet50"):
            p99_resident = resident["models"][model]["latency_seconds"]["p99"]
            p99_layered = layered["models"][model]["latency_seconds"]["p99"]
            assert p99_resident > 0
            # Direction: layering costs latency, but boundedly (well
            # under the DMA-unhidden worst case of these models).
            assert p99_resident <= p99_layered <= 5 * p99_resident
        assert (layered["fleet"]["pool_peak_bytes"]
                < resident["fleet"]["pool_peak_bytes"])

    def test_overload_sheds_and_stays_live(self):
        # 20x flash crowd against a heavyweight model: the ladder must
        # shed/reject rather than spin, and every request gets a fate.
        config = ServeConfig(
            models=tuple(parse_models("vgg16:2,googlenet:1,alexnet")),
            arrivals=ArrivalSpec.parse("burst:rate=50,at=0.2,dur=2,x=20,seed=2"),
            requests=300,
            budget_bytes=1 * GIB,
            residency="layered",
        )
        result = simulate_serving(config)
        assert result.completed + result.shed + result.rejected == 300
        assert result.shed + result.rejected > 0
        assert result.window_shrinks > 0
        # Shedding is priority displacement: only the lowest priority
        # present in the queue at the time is ever shed, so no shed
        # request outranks every completed one.
        if result.shed and result.completed:
            assert (max(r.priority for r in result.records
                        if r.outcome == "shed")
                    <= max(r.priority for r in result.records
                           if r.outcome == "completed"))

    def test_budget_shrink_fault_evicts_and_continues(self):
        config = _small_scenario(
            residency="resident",
            faults=FaultSpec.parse("shrink@0.5=0.25"))
        result = simulate_serving(config)
        assert result.completed > 0
        assert result.pool_peak_bytes <= 1 * GIB

    def test_eviction_fault_forces_reinstall(self):
        config = _small_scenario(
            residency="resident",
            faults=FaultSpec.parse("evict@0.2=alexnet"))
        result = simulate_serving(config)
        baseline = simulate_serving(_small_scenario(residency="resident"))
        assert result.evictions >= 1
        assert result.cold_starts > baseline.cold_starts

    def test_timeline_uses_model_lanes(self):
        result = simulate_serving(_small_scenario())
        streams = {e.stream for e in result.timeline.events}
        assert any(s.startswith("model:") for s in streams)

    def test_report_renders(self):
        result = simulate_serving(_small_scenario())
        text = serve_report(result)
        assert "googlenet" in text and "p99" in text and "goodput" in text

    def test_config_validation(self):
        with pytest.raises(ServeConfigError):
            _small_scenario(budget_bytes=0)
        with pytest.raises(ServeConfigError):
            _small_scenario(residency="bogus")
        with pytest.raises(ServeConfigError):
            _small_scenario(shed_depth=4, shrink_depth=8)
        with pytest.raises(ServeConfigError):
            ServeConfig(models=(),
                        arrivals=ArrivalSpec.parse("poisson:rate=1"))


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestServeCli:
    def test_smoke_table(self, capsys):
        assert main(["serve", "--arrivals", "poisson:rate=40,seed=7",
                     "--models", "googlenet,alexnet",
                     "--budget", "1GiB", "--requests", "40"]) == 0
        out = capsys.readouterr().out
        assert "googlenet" in out and "SLO" in out

    def test_json_schema_stable(self, capsys):
        argv = ["serve", "--arrivals", "poisson:rate=40,seed=7",
                "--models", "googlenet", "--budget", "512MiB",
                "--requests", "30", "--format", "json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["schema"] == 1
        assert set(payload) == {"schema", "scenario", "models", "fleet"}
        assert "googlenet" in payload["models"]
        assert {"p50", "p95", "p99"} <= set(
            payload["models"]["googlenet"]["latency_seconds"])

    def test_metrics_export_appended(self, capsys):
        assert main(["serve", "--arrivals", "poisson:rate=30,seed=1",
                     "--models", "googlenet", "--budget", "256MiB",
                     "--requests", "20", "--metrics", "json"]) == 0
        out = capsys.readouterr().out
        assert "repro_serve_latency_seconds" in out

    def test_trace_written_with_model_lanes(self, tmp_path, capsys):
        trace = tmp_path / "serve.json"
        assert main(["serve", "--arrivals", "poisson:rate=30,seed=1",
                     "--models", "googlenet,alexnet", "--budget", "1GiB",
                     "--requests", "30", "--trace", str(trace)]) == 0
        events = json.loads(trace.read_text())["traceEvents"]
        lanes = {e["args"]["name"] for e in events
                 if e.get("name") == "process_name"}
        assert {"googlenet", "alexnet"} <= lanes

    def test_gpu_preset_flag(self, capsys):
        assert main(["serve", "--arrivals", "poisson:rate=20,seed=1",
                     "--models", "googlenet", "--budget", "256MiB",
                     "--requests", "15", "--gpu", "jetson"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [
        ["serve", "--arrivals", "bogus:rate=1"],
        ["serve", "--models", "nonexistent"],
        ["serve", "--budget", "lots"],
        ["serve", "--faults", "dma=7"],
        ["serve", "--gpu", "tpu"],
    ])
    def test_bad_arguments_exit_2(self, argv, capsys):
        assert main(argv) == 2
        capsys.readouterr()
