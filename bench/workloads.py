"""The five benchmark workloads: seeded inputs, one pass, output checks.

A workload is five functions.  ``setup(seed, quick)`` imports what the
pass needs and builds its inputs (this is the set-up a CLI user pays),
including ``items``, the number of work items the pass attempts;
``run(inputs)`` is the timed closed-loop pass, one call at a time;
``check(inputs, outputs)`` returns ``(failed items, problems)``;
``modeled(inputs, outputs)`` returns the simulated metrics, which are
exact and must not move under a change that only speeds up the
simulator.  ``digest(outputs)`` hashes every simulated output so two
runs can be compared without shipping the outputs between processes.

``quick`` shrinks every workload to a few seconds in total, for the
benchmark's own tests.  See README.md for why each workload exists.
"""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

#: Fork/join, recurrent and residual graphs: the sanitizer's hard cases.
DEEP_NETWORKS = ("googlenet", "lstm", "resnet18")
#: The three zoo graphs whose static verification takes five times as
#: long as that of the other eleven together (joint ladder replays on
#: 500-layer plans); leaving them out keeps a repetition short.
STATIC_SKIP = ("resnet152", "vgg316", "vgg416")
#: Every modeled metric any workload reports; the others read 0 there.
MODELED = (
    "model.dyn_perf_vs_oracle", "model.joint_perf_vs_oracle",
    "model.trainable_points", "model.paper_err_pp",
    "model.serve_goodput_rps", "model.serve_p50_ms", "model.serve_p99_ms",
    "model.fleet_makespan_s", "model.sched_makespan_s",
    "hw.pcie.offload_gb", "hw.pcie.prefetch_gb", "core.executor.stall_pct",
    "serve.server.cold_starts", "serve.server.shed", "serve.server.rejected",
    "cluster.fleet.preemptions", "cluster.fleet.utilization",
)

Check = Tuple[int, List[str]]


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, bool], dict]
    run: Callable[[dict], object]
    check: Callable[[dict, object], Check]
    digest: Callable[[object], str]
    modeled: Callable[[dict, object], Dict[str, float]]


def _sha(items) -> str:
    digest = hashlib.sha256()
    for item in items:
        digest.update(repr(item).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _nothing_modeled(inputs: dict, outputs: object) -> Dict[str, float]:
    return {}


# ----------------------------------------------------------------------
# verify-deep and static-zoo: the sanitizer gate, simulated or interpreted
# ----------------------------------------------------------------------
def _verify_setup(seed: int, quick: bool) -> dict:
    from repro.analysis import verify

    names = ["alexnet"] if quick else list(DEEP_NETWORKS)
    return {"names": names, "mode": "dynamic",
            "items": len(names) * len(verify.SWEEP_POLICIES)}


def _static_setup(seed: int, quick: bool) -> dict:
    from repro import zoo
    from repro.analysis import static_plan, verify  # noqa: F401

    names = ["alexnet"] if quick else [
        name for name in zoo.available() if name not in STATIC_SKIP]
    return {"names": names, "mode": "static",
            "items": len(names) * len(verify.SWEEP_POLICIES)}


def _verify_run(inputs: dict) -> list:
    from repro.analysis import verify

    return verify.verify_zoo(names=inputs["names"], jobs=1,
                             mode=inputs["mode"])


def _verify_check(inputs: dict, reports: list) -> Check:
    failing = [report.render_text() for report in reports if not report.ok]
    missing = inputs["items"] - len(reports)
    problems = failing + ([f"{missing} grid points produced no report"]
                          if missing else [])
    return len(failing) + max(missing, 0), problems


def _verify_digest(reports: list) -> str:
    return _sha(report.render_text() for report in reports)


# ----------------------------------------------------------------------
# paper-grid: the paper's evaluation, cold, then its figures
# ----------------------------------------------------------------------
#: Abstract / Section V claims: (config, paper value in %).
_SAVINGS_CLAIMS = ((("alexnet", 128), 89.0), (("overfeat", 128), 91.0),
                   (("googlenet", 128), 95.0))
_LOSS_CLAIM = (("vgg16", 256), 18.0)


def _paper_setup(seed: int, quick: bool) -> dict:
    from repro import zoo
    from repro.core import api  # noqa: F401
    from repro.reporting import figures  # noqa: F401

    conventional = [("alexnet", 128)] if quick else zoo.PAPER_CONVENTIONAL
    very_deep = [] if quick else zoo.PAPER_VERY_DEEP
    return {
        "conventional": [(config, zoo.build(*config))
                         for config in conventional],
        "very_deep": [(config, zoo.build(*config)) for config in very_deep],
        "items": len(conventional) + len(very_deep),
    }


def _paper_run(inputs: dict) -> dict:
    from repro.core import api
    from repro.reporting import figures

    grid = {}
    for config, network in inputs["conventional"]:
        for column, result in api.compare_policies(network).items():
            grid[config, column] = result
        grid[config, "oracle"] = api.oracular_baseline(network)
    for config, network in inputs["very_deep"]:
        # all(m) first: the dyn ladder's feasibility probe replays it
        # from the cache, as Figure 15's own evaluation order would.
        grid[config, "all(m)"] = api.evaluate(network, policy="all",
                                              algo="m")
        grid[config, "base(p)"] = api.evaluate(network, policy="base",
                                               algo="p")
        grid[config, "dyn"] = api.evaluate(network, policy="dyn")
        grid[config, "oracle"] = api.oracular_baseline(network)
    networks = [network for _config, network in inputs["conventional"]]
    shown = [
        figures.fig01_baseline_usage(networks),
        figures.fig04_breakdown(networks),
        figures.fig11_memory_usage(networks),
        figures.fig12_offload_size(networks),
        figures.fig14_performance(networks),
        figures.power_section(networks),
        figures.headline(),
    ]
    if inputs["very_deep"]:
        shown.append(figures.fig15_very_deep())
    return {"grid": grid, "figures": [figure.text for figure in shown]}


def _result_facts(result) -> tuple:
    """Every scalar an IterationResult reports (timelines excluded)."""
    return (result.network_name, result.policy_label, result.algo_label,
            result.trainable, result.failure, result.managed_max_bytes,
            result.managed_avg_bytes, result.external_bytes,
            result.persistent_bytes, result.total_time,
            result.feature_extraction_time, result.offload_bytes,
            result.prefetch_bytes, result.pinned_peak_bytes,
            result.compute_stall_seconds, result.offload_raw_bytes,
            tuple(result.offloaded_layers))


def _paper_check(inputs: dict, outputs: dict) -> Check:
    """vDNN_all(m) and dyn train every config, and re-evaluating dyn and
    joint after the figures (cache hits, or re-simulation after an LRU
    eviction) reproduces the cold results exactly."""
    from repro.core import api

    grid = outputs["grid"]
    configs = inputs["conventional"] + inputs["very_deep"]
    problems = []
    failed = 0
    for config, network in configs:
        before = len(problems)
        for column in ("all(m)", "dyn"):
            if not grid[config, column].trainable:
                problems.append(f"{config}: {column} is not trainable")
        for column in ("dyn", "joint"):
            if (config, column) not in grid:
                continue
            again = api.evaluate(network, policy=column)
            if _result_facts(again) != _result_facts(grid[config, column]):
                problems.append(
                    f"{config}: re-evaluated {column} differs from the "
                    f"cold result")
        failed += len(problems) > before
    return failed, problems


def _paper_digest(outputs: dict) -> str:
    grid = outputs["grid"]
    return _sha([(key, _result_facts(grid[key])) for key in sorted(grid)]
                + outputs["figures"])


def _geomean(values: List[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values)) \
        if values else 0.0


def _paper_modeled(inputs: dict, outputs: dict) -> Dict[str, float]:
    grid = outputs["grid"]
    configs = [config for config, _network
               in inputs["conventional"] + inputs["very_deep"]]

    def vs_oracle(column: str) -> float:
        return _geomean([
            grid[config, "oracle"].feature_extraction_time
            / grid[config, column].feature_extraction_time
            for config in configs if (config, column) in grid])

    errors = [
        abs(100.0 * (1.0 - grid[config, "all(m)"].managed_avg_bytes
                     / grid[config, "base(p)"].max_usage_bytes) - paper)
        for config, paper in _SAVINGS_CLAIMS if (config, "all(m)") in grid]
    config, paper = _LOSS_CLAIM
    if (config, "dyn") in grid:
        loss = 1.0 - grid[config, "oracle"].feature_extraction_time \
            / grid[config, "dyn"].feature_extraction_time
        errors.append(abs(100.0 * max(loss, 0.0) - paper))
    planned = [result for (config, column), result in grid.items()
               if column in ("dyn", "joint")]
    return {
        "model.dyn_perf_vs_oracle": vs_oracle("dyn"),
        "model.joint_perf_vs_oracle": vs_oracle("joint"),
        "model.trainable_points": sum(
            result.trainable for (config, column), result in grid.items()
            if column != "oracle"),
        "model.paper_err_pp": sum(errors) / len(errors) if errors else 0.0,
        "hw.pcie.offload_gb": sum(r.offload_bytes for r in planned) / 1e9,
        "hw.pcie.prefetch_gb": sum(r.prefetch_bytes for r in planned) / 1e9,
        "core.executor.stall_pct": 100.0 * sum(
            r.compute_stall_seconds for r in planned) / sum(
            r.total_time for r in planned),
    }


# ----------------------------------------------------------------------
# serve-diurnal: demand-layered serving through a day-night cycle
# ----------------------------------------------------------------------
SERVE_MODELS = "vgg16:2,googlenet:1,alexnet,resnet50"


def _serve_setup(seed: int, quick: bool) -> dict:
    from repro import serve

    config = serve.ServeConfig(
        models=tuple(serve.parse_models(SERVE_MODELS)),
        arrivals=serve.ArrivalSpec.parse(
            f"diurnal:rate=40,period=20,seed={seed}"),
        requests=500 if quick else 5000,
        budget_bytes=1 << 30,
    )
    return {"config": config, "items": config.requests}


def _serve_run(inputs: dict):
    from repro import serve

    return serve.simulate_serving(inputs["config"])


def _serve_check(inputs: dict, result) -> Check:
    requests = inputs["config"].requests
    fates = Counter(record.rid for record in result.records
                    if record.outcome in ("completed", "shed", "rejected"))
    failed = sum(fates[rid] != 1 for rid in range(requests))
    problems = []
    if failed or len(result.records) != requests:
        problems.append(
            f"completed {result.completed} + shed {result.shed} + "
            f"rejected {result.rejected} records for {requests} requests; "
            f"{failed} requests unaccounted for or repeated")
    return failed, problems


def _serve_digest(result) -> str:
    return _sha((r.rid, r.model, r.outcome, r.start, r.finish, r.cold_start)
                for r in result.records)


def _nearest_rank(ordered: List[float], q: float) -> float:
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)] \
        if ordered else 0.0


def _serve_modeled(inputs: dict, result) -> Dict[str, float]:
    slo = inputs["config"].slo_seconds
    latencies = sorted(r.latency for r in result.records
                       if r.outcome == "completed")
    good = sum(latency <= slo for latency in latencies)
    return {
        "model.serve_goodput_rps": good / result.makespan,
        "model.serve_p50_ms": 1e3 * _nearest_rank(latencies, 0.50),
        "model.serve_p99_ms": 1e3 * _nearest_rank(latencies, 0.99),
        "serve.server.cold_starts": result.cold_starts,
        "serve.server.shed": result.shed,
        "serve.server.rejected": result.rejected,
    }


# ----------------------------------------------------------------------
# tenancy: the fleet scheduler, then the single-GPU scheduler
# ----------------------------------------------------------------------
#: Eight distinct (network, batch) configs the tenants train.
TENANT_MIX = (("alexnet", 128), ("googlenet", 128), ("overfeat", 128),
              ("resnet18", 64), ("resnet50", 32), ("vgg16", 64),
              ("vgg16", 128), ("lstm", 64))


#: Independent schedule pairs per pass, jobs per fleet and per single-GPU
#: schedule, and the arrival rate (jobs per simulated second).  One long
#: schedule would make the pass's host time swing by a quarter from seed
#: to seed with the preemption count; six short ones average it out.
TENANT_ROUNDS, FLEET_JOBS, SCHED_JOBS, TENANT_RATE = 6, 40, 60, 0.5


def _tenant_jobs(rng: random.Random, count: int, gangs: bool) -> list:
    """``count`` jobs arriving as a Poisson stream.

    The job mix (network, gang width, length, priority) is the same
    multiset for every seed; the seed shuffles its order and draws the
    arrival gaps, so the amount of work stays put across seeds.
    """
    from repro.cluster import ClusterJob
    from repro.sched import Job

    mix = [(TENANT_MIX[index % 8], (1, 1, 2, 4)[index // 8 % 4],
            20 + index * 37 % 131, (0, 0, 1, 2)[(index + index // 8) % 4])
           for index in range(count)]
    rng.shuffle(mix)
    jobs, clock = [], 0.0
    for index, ((network, batch), gpus, iterations, priority) in \
            enumerate(mix):
        clock += rng.expovariate(TENANT_RATE)
        fields = dict(name=f"{network}#{index}", network=network,
                      batch_size=batch, iterations=iterations,
                      priority=priority, submit_time=clock)
        jobs.append(ClusterJob(num_gpus=gpus, **fields) if gangs
                    else Job(**fields))
    return jobs


def _tenancy_setup(seed: int, quick: bool) -> dict:
    rng = random.Random(seed)
    rounds = [(_tenant_jobs(rng, 20 if quick else FLEET_JOBS, True),
               _tenant_jobs(rng, 20 if quick else SCHED_JOBS, False))
              for _round in range(1 if quick else TENANT_ROUNDS)]
    return {"rounds": rounds,
            "items": sum(len(fleet) + len(single) for fleet, single in rounds)}


def _tenancy_run(inputs: dict) -> list:
    from repro import cluster, sched

    return [(cluster.schedule_fleet(fleet, topology="pcie-switch",
                                    num_gpus=8, preemption=True),
             sched.schedule_jobs(single, policy="best_fit",
                                 budget_bytes=12 * (1 << 30)))
            for fleet, single in inputs["rounds"]]


def _tenancy_check(inputs: dict, outputs: list) -> Check:
    """Every job finishes or is rejected, and every single-GPU schedule
    passes the shared-pool sanitizer."""
    from repro.analysis import verify

    problems, failed = [], 0
    for (fleet_jobs, single_jobs), results in zip(inputs["rounds"], outputs):
        for jobs, result in zip((fleet_jobs, single_jobs), results):
            settled = {record.job.name for record in result.records
                       if record.state.value in ("finished", "rejected")}
            unsettled = sum(job.name not in settled for job in jobs)
            if unsettled:
                problems.append(f"{unsettled} of {len(jobs)} jobs neither "
                                f"finished nor rejected")
            failed += unsettled
        report = verify.verify_schedule(results[1])
        if not report.ok:
            # An unsound shared-pool schedule fails every job in it.
            problems.append(report.render_text())
            failed += len(single_jobs)
    return min(failed, inputs["items"]), problems


def _tenancy_digest(outputs: list) -> str:
    return _sha((round_, r.job.name, r.state.value, r.rung, r.admit_time,
                 r.finish_time, r.evictions)
                for round_, results in enumerate(outputs)
                for result in results for r in result.records)


def _tenancy_modeled(inputs: dict, outputs: list) -> Dict[str, float]:
    fleets = [fleet for fleet, _single in outputs]
    return {
        "model.fleet_makespan_s":
            sum(fleet.makespan for fleet in fleets) / len(fleets),
        "model.sched_makespan_s":
            sum(single.makespan for _f, single in outputs) / len(outputs),
        "cluster.fleet.preemptions": sum(f.preemptions for f in fleets),
        "cluster.fleet.utilization":
            sum(f.fleet_utilization for f in fleets) / len(fleets),
    }


WORKLOADS: Dict[str, Workload] = {
    "verify-deep": Workload(_verify_setup, _verify_run, _verify_check,
                            _verify_digest, _nothing_modeled),
    "static-zoo": Workload(_static_setup, _verify_run, _verify_check,
                           _verify_digest, _nothing_modeled),
    "paper-grid": Workload(_paper_setup, _paper_run, _paper_check,
                           _paper_digest, _paper_modeled),
    "serve-diurnal": Workload(_serve_setup, _serve_run, _serve_check,
                              _serve_digest, _serve_modeled),
    "tenancy": Workload(_tenancy_setup, _tenancy_run, _tenancy_check,
                        _tenancy_digest, _tenancy_modeled),
}
