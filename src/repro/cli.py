"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``networks`` — list the zoo and each configuration's baseline footprint;
* ``evaluate`` — simulate one network under one policy/algorithm;
* ``sweep`` — the full Figure-11/14 policy sweep for one network;
* ``capacity`` — max trainable batch per policy;
* ``figures`` — regenerate one or all paper figures;
* ``train-demo`` — run real numpy training under a memory budget;
* ``schedule`` — pack concurrent training jobs onto one virtualized GPU;
* ``serve`` — online inference serving: an open-loop arrival stream over
  a multiplexed model zoo, weights resident or demand-layered through a
  sliding PCIe window, with SLO quantiles from the obs histograms; see
  docs/serving.md.
* ``verify`` — run the schedule sanitizer (race + memory-safety passes)
  over simulated schedules; see docs/analysis.md.
* ``faults`` — simulate under deterministic fault injection (degraded
  PCIe, transient DMA failures, pinned pressure) and report recovery;
  ``evaluate`` and ``schedule`` also accept ``--faults``/``--fault-seed``.
* ``metrics`` — run one instrumented simulation (or schedule) and emit
  its metrics in Prometheus text format or sorted-keys JSON; see
  docs/observability.md.  ``evaluate`` and ``schedule`` accept
  ``--metrics [prom|json]`` to append the same export to their report.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import List, Optional

from .core import (
    capacity_report,
    compare_policies,
    evaluate,
    oracular_baseline,
)
from .core.api import POLICIES
from .faults import FaultSpec, FaultSpecError
from .graph import gb
from .hw import PAPER_SYSTEM
from .reporting import format_table, gb_str, ms_str, pct_str
from .zoo import available, build


def _parse_faults(args) -> Optional[FaultSpec]:
    """Parse ``--faults``; raises SystemExit-friendly FaultSpecError."""
    if not getattr(args, "faults", None):
        return None
    return FaultSpec.parse(args.faults)


#: Size-string suffixes accepted by :func:`_parse_bytes` (binary units;
#: the decimal spellings are accepted as their binary siblings).
_BYTE_SUFFIXES = {
    "kib": 1 << 10, "kb": 1 << 10, "k": 1 << 10,
    "mib": 1 << 20, "mb": 1 << 20, "m": 1 << 20,
    "gib": 1 << 30, "gb": 1 << 30, "g": 1 << 30,
}


def _parse_bytes(text: str) -> int:
    """Parse a human size string — ``4GiB``, ``512MB``, ``65536``.

    A size is a *positive* byte count: zero and negative results are
    rejected with the same error as unparseable text, so ``-4GiB``
    cannot flow into ``--budget``/``--window`` and corrupt allocator
    math downstream.
    """
    cleaned = text.strip().lower().replace(" ", "")
    nbytes = None
    for suffix in sorted(_BYTE_SUFFIXES, key=len, reverse=True):
        if cleaned.endswith(suffix):
            number = cleaned[: -len(suffix)]
            try:
                nbytes = int(float(number) * _BYTE_SUFFIXES[suffix])
            except ValueError:
                pass
            break
    if nbytes is None:
        try:
            nbytes = int(cleaned)
        except ValueError:
            nbytes = None
    if nbytes is None or nbytes <= 0:
        raise ValueError(
            f"cannot parse size {text!r} (try 4GiB, 512MiB, 65536)"
        )
    return nbytes


@contextmanager
def _cache_observed(obs):
    """Attach ``obs`` to the process-wide result cache for one run."""
    from .perf.cache import get_cache

    cache = get_cache()
    previous = cache.obs
    cache.obs = obs
    try:
        yield
    finally:
        cache.obs = previous


def _make_obs():
    from .obs import Instrumentation

    return Instrumentation()


def _render_metrics(obs, fmt: str, meta: Optional[dict] = None) -> str:
    from .obs import metrics_json, prometheus_text

    obs.flush()  # resolve deferred end-of-run summaries
    if fmt == "json":
        return metrics_json(obs.registry, spans=obs.spans, meta=meta)
    return prometheus_text(obs.registry)


def _cmd_networks(_args) -> int:
    rows = []
    for name in available():
        network = build(name)
        base = evaluate(network, policy="base", algo="p")
        rows.append([
            name, network.name, len(network), len(network.conv_layers),
            gb_str(base.max_usage_bytes),
            "yes" if base.trainable else "NO",
        ])
    print(format_table(
        ["key", "configuration", "layers", "convs", "baseline footprint",
         "fits 12 GB"],
        rows, title="Network zoo (paper defaults)",
    ))
    return 0


def _cmd_evaluate(args) -> int:
    network = build(args.network, args.batch)
    try:
        faults = _parse_faults(args)
    except FaultSpecError as exc:
        print(f"bad fault spec: {exc}", file=sys.stderr)
        return 2
    obs = _make_obs() if args.metrics else None
    try:
        with _cache_observed(obs):
            result = evaluate(network, policy=args.policy, algo=args.algo,
                              faults=faults, fault_seed=args.fault_seed,
                              obs=obs)
    except ValueError as exc:
        if faults is None:
            raise
        print(f"faults: {exc}", file=sys.stderr)
        return 2
    oracle = oracular_baseline(network)
    rows = [
        ["trainable", "yes" if result.trainable else
         f"NO ({result.failure})"],
        ["max memory", gb_str(result.max_usage_bytes)],
        ["avg memory", gb_str(result.avg_usage_bytes)],
        ["offloaded / iteration", gb_str(result.offload_bytes)],
        ["iteration time", ms_str(result.total_time)],
        ["compute stalls", ms_str(result.compute_stall_seconds)],
        ["perf vs oracular baseline",
         f"{oracle.feature_extraction_time / result.feature_extraction_time:.2f}"
         if result.feature_extraction_time else "-"],
    ]
    print(format_table(
        ["metric", "value"], rows,
        title=f"{network.name} under {result.label}",
    ))
    if result.fault_report is not None:
        print()
        print(f"Faults (spec {result.fault_report.spec.label}, "
              f"seed {result.fault_report.seed}):")
        for line in result.fault_report.summary_lines():
            print(f"  {line}")
    if obs is not None:
        print()
        print(_render_metrics(obs, args.metrics, meta={
            "command": "evaluate", "network": network.name,
            "policy": args.policy, "algo": args.algo,
        }).rstrip("\n"))
    return 0 if result.trainable else 1


def _cmd_sweep(args) -> int:
    network = build(args.network, args.batch)
    sweep = compare_policies(network, jobs=args.jobs)
    oracle = oracular_baseline(network)
    rows = []
    for key, r in sweep.items():
        star = "" if r.trainable else "*"
        rows.append([
            key + star,
            gb_str(r.avg_usage_bytes), gb_str(r.max_usage_bytes),
            ms_str(r.feature_extraction_time),
            f"{oracle.feature_extraction_time / r.feature_extraction_time:.2f}",
        ])
    print(format_table(
        ["config", "avg mem", "max mem", "fe time", "perf vs oracle"],
        rows, title=f"{network.name}: policy sweep (* = exceeds GPU memory)",
    ))
    return 0


def _cmd_capacity(args) -> int:
    network = build(args.network, args.batch)
    report = capacity_report(network, PAPER_SYSTEM, upper_limit=args.limit)
    print(format_table(
        ["policy", "max trainable batch"],
        [[k, v] for k, v in report.max_batch.items()],
        title=f"Batch capacity of {network.name.split('(')[0]} on "
              f"{report.gpu_name}",
    ))
    return 0


def _cmd_plan(args) -> int:
    from .core import plan_training_run

    network = build(args.network, args.batch)
    plan = plan_training_run(network, PAPER_SYSTEM,
                             dataset_size=args.dataset_size,
                             epochs=args.epochs)
    print(format_table(
        ["metric", "value"], plan.summary_rows(),
        title=f"Training-run plan: {network.name}, "
              f"{args.epochs} epochs over {args.dataset_size:,} images",
    ))
    return 0


def _cmd_figures(args) -> int:
    from .reporting import figures as fig_mod

    jobs = args.jobs
    drivers = {
        "fig01": lambda: fig_mod.fig01_baseline_usage(),
        "fig04": lambda: fig_mod.fig04_breakdown(),
        "fig05": lambda: fig_mod.fig05_per_layer(build("vgg16", 256)),
        "fig06": lambda: fig_mod.fig06_reuse_distance(build("vgg16", 64)),
        "fig11": lambda: fig_mod.fig11_memory_usage(jobs=jobs),
        "fig12": lambda: fig_mod.fig12_offload_size(),
        "fig13": lambda: fig_mod.fig13_dram_bandwidth(build("vgg16", 256)),
        "fig14": lambda: fig_mod.fig14_performance(jobs=jobs),
        "fig15": lambda: fig_mod.fig15_very_deep(),
        "headline": lambda: fig_mod.headline(jobs=jobs),
    }
    wanted = drivers if args.figure == "all" else {args.figure: drivers[args.figure]}
    for name, driver in wanted.items():
        text = driver().text
        if args.out:
            import os

            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"{name}.txt")
            with open(path, "w") as handle:
                handle.write(text + "\n")
            print(f"wrote {path}")
        else:
            print(text)
            print()
    return 0


def _cmd_train_demo(args) -> int:
    import numpy as np

    from .core import PolicyKind, TransferPolicy
    from .graph import LayerKind, NetworkBuilder
    from .numerics import TrainingRuntime, make_batch

    builder = NetworkBuilder("demo-cnn", (args.batch, 3, 32, 32))
    for _ in range(4):
        builder.conv(32, kernel=3, pad=1).relu()
    builder.pool()
    network = builder.fc(10).softmax().build()

    policy = TransferPolicy(PolicyKind(args.policy))
    runtime = TrainingRuntime(network, policy, seed=0, learning_rate=0.02)
    for step in range(args.steps):
        images, labels = make_batch((args.batch, 3, 32, 32), 10, seed=step)
        result = runtime.train_step(images, labels)
        print(f"step {step:2d}  loss {result.loss:7.4f}  "
              f"device peak {result.device_peak_bytes / (1 << 20):6.1f} MiB  "
              f"offloads {result.offload_count}")

    # cDMA (Rhu et al.): each offloaded feature map's measured zero
    # fraction next to the compression model's sparsity estimate, which
    # treats every activation's output as ReLU sparse, as the plan does.
    zeros = runtime.host.zero_fractions
    activated = {n.storage_index for n in network
                 if n.kind is LayerKind.ACTV}
    span = max(1, len(network) - 1)
    if zeros:
        print("offloaded layer  measured zeros  cDMA model")
    for node in network:
        measured = zeros.get(f"Y{node.index}")
        if measured is not None:
            model = PAPER_SYSTEM.compression.sparsity(
                node.index in activated, node.index / span)
            print(f"{node.name:15s}  {measured:14.3f}  {model:10.3f}")
    return 0


#: Default ``schedule`` workload: the paper's four headline ImageNet
#: networks as four co-tenant jobs on one 12 GB TITAN X.
DEFAULT_WORKLOAD = "alexnet:128:50,vgg16:64:50,resnet50:32:50,googlenet:128:50"

#: Default ``cluster`` workload: one 4-GPU data-parallel gang (the
#: PCIe-bound network, where ring allreduce meets vDNN DMA) plus
#: single-GPU fill jobs.
DEFAULT_CLUSTER_WORKLOAD = \
    "resnet50:32:30:4,alexnet:128:40,vgg16:64:20,googlenet:128:40"


def _cmd_schedule(args) -> int:
    from .sched import Job, JobState, schedule_jobs, schedule_report

    try:
        jobs = [
            Job.parse(spec, index)
            for index, spec in enumerate(args.jobs.split(","))
            if spec.strip()
        ]
    except (KeyError, ValueError) as exc:
        print(f"bad job spec: {exc}", file=sys.stderr)
        return 2
    if not jobs:
        print("no jobs given", file=sys.stderr)
        return 2
    budget = int(args.budget_gb * (1 << 30))
    if budget <= 0:
        print(f"budget must be positive, got {args.budget_gb} GB",
              file=sys.stderr)
        return 2
    try:
        faults = _parse_faults(args)
    except FaultSpecError as exc:
        print(f"bad fault spec: {exc}", file=sys.stderr)
        return 2
    obs = _make_obs() if args.metrics else None
    result = schedule_jobs(jobs, system=PAPER_SYSTEM, policy=args.policy,
                           budget_bytes=budget, faults=faults,
                           fault_seed=args.fault_seed, obs=obs)
    print(schedule_report(result))
    if obs is not None:
        print()
        print(_render_metrics(obs, args.metrics, meta={
            "command": "schedule", "policy": args.policy,
            "budget_gb": args.budget_gb,
        }).rstrip("\n"))
    if args.trace:
        from .sim import save_trace

        save_trace(args.trace, result.timeline, result.usage,
                   process_name=f"multi-tenant {args.policy}",
                   spans=obs.spans.spans if obs is not None else None)
        print(f"wrote {args.trace}")
    finished = sum(1 for r in result.records
                   if r.state is JobState.FINISHED)
    return 0 if finished == len(result.records) else 1


def _cmd_serve(args) -> int:
    """Online inference serving: drain one open-loop scenario."""
    import json as _json

    from .hw import SystemConfig, gpu_preset
    from .serve import (ArrivalSpec, ArrivalSpecError, ServeConfig,
                        ServeConfigError, parse_models, serve_json,
                        serve_report, simulate_serving)
    from .serve.layering import ServePlanError

    try:
        arrivals = ArrivalSpec.parse(args.arrivals)
        models = tuple(parse_models(args.models))
    except ArrivalSpecError as exc:
        print(f"bad serving scenario: {exc}", file=sys.stderr)
        return 2
    try:
        budget = _parse_bytes(args.budget)
        window = _parse_bytes(args.window)
        pinned = _parse_bytes(args.pinned)
    except ValueError as exc:
        print(f"bad size: {exc}", file=sys.stderr)
        return 2
    try:
        faults = _parse_faults(args)
    except FaultSpecError as exc:
        print(f"bad fault spec: {exc}", file=sys.stderr)
        return 2
    system = PAPER_SYSTEM
    if args.gpu:
        try:
            system = SystemConfig(gpu=gpu_preset(args.gpu))
        except KeyError as exc:
            print(f"bad gpu preset: {exc.args[0]}", file=sys.stderr)
            return 2
    try:
        config = ServeConfig(
            models=models,
            arrivals=arrivals,
            requests=args.requests,
            budget_bytes=budget,
            slo_seconds=args.slo / 1e3,
            residency=args.residency,
            window_bytes=window,
            pinned_bytes=pinned,
            batch=args.batch,
            faults=faults if faults is not None else FaultSpec.none(),
            fault_seed=args.fault_seed,
        )
        result = simulate_serving(config, system=system)
    except (ServeConfigError, ServePlanError, ValueError) as exc:
        print(f"serving failed: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(_json.dumps(serve_json(result), sort_keys=True, indent=2))
    else:
        print(serve_report(result))
    if args.metrics:
        print()
        print(_render_metrics(result.obs, args.metrics, meta={
            "command": "serve", "arrivals": arrivals.label,
            "budget_bytes": budget,
        }).rstrip("\n"))
    if args.trace:
        from .sim import save_trace

        save_trace(args.trace, result.timeline,
                   process_name=f"serving {arrivals.label}",
                   spans=result.obs.spans.spans)
        print(f"wrote {args.trace}")
    return 0 if result.completed else 1


def _cmd_cluster(args) -> int:
    """Fleet simulation: place jobs across an N-GPU cluster topology.

    Exit-code contract: 0 when every job finished (and, under
    ``--verify``, every worker trace is sanitizer-clean), 1 otherwise,
    2 on usage errors.
    """
    from .cluster import (ClusterJob, cluster_report, schedule_fleet,
                          simulate_cluster_iteration, topology_table,
                          worker_results)
    from .hw import make_topology
    from .sched import JobState

    try:
        jobs = [
            ClusterJob.parse(spec, index)
            for index, spec in enumerate(args.jobs.split(","))
            if spec.strip()
        ]
    except (KeyError, ValueError) as exc:
        print(f"bad job spec: {exc}", file=sys.stderr)
        return 2
    if not jobs:
        print("no jobs given", file=sys.stderr)
        return 2
    budget = int(args.budget_gb * (1 << 30))
    if budget <= 0:
        print(f"budget must be positive, got {args.budget_gb} GB",
              file=sys.stderr)
        return 2
    try:
        topology = make_topology(args.topology, args.gpus)
    except (KeyError, ValueError) as exc:
        print(f"bad topology: {exc}", file=sys.stderr)
        return 2
    obs = _make_obs() if args.metrics else None
    try:
        result = schedule_fleet(
            jobs, topology=topology, placement=args.placement,
            budget_bytes=budget, arrival_rate=args.arrival_rate,
            seed=args.seed, preemption=not args.no_preempt, obs=obs,
        )
    except (KeyError, ValueError) as exc:
        print(f"cluster run failed: {exc}", file=sys.stderr)
        return 2

    if args.contention:
        # The acceptance lens: each gang's allreduce/offload contention
        # across every topology preset, independent of the schedule.
        gangs = sorted({
            (j.network, j.batch_size, j.num_gpus)
            for j in jobs if j.num_gpus > 1
        })
        for network, batch, gpus in gangs:
            reports = [
                simulate_cluster_iteration(
                    network, batch, gpus, make_topology(name, args.gpus))
                for name in ("pcie-switch", "nvlink-ring", "nvlink-mesh")
            ]
            print(topology_table(reports))
            print()

    print(cluster_report(result))

    clean = True
    if args.verify:
        print()
        checked = 0
        for record in result.records:
            gang = getattr(record.job, "num_gpus", 1)
            if record.state is not JobState.FINISHED or record.rung is None:
                continue
            for report in worker_results(
                    record.job.network, record.job.batch_size, gang,
                    topology, rung=record.rung):
                checked += 1
                clean = clean and report.ok
                status = "ok" if report.ok \
                    else f"{len(report.errors)} error(s)"
                print(f"  verify {report.subject}: {status}")
        print(f"{checked} worker trace(s) verified: "
              f"{'clean' if clean else 'ERRORS'}")

    if obs is not None:
        print()
        print(_render_metrics(obs, args.metrics, meta={
            "command": "cluster", "topology": topology.name,
            "gpus": topology.num_gpus, "placement": args.placement,
        }).rstrip("\n"))
    finished = sum(1 for r in result.records
                   if r.state is JobState.FINISHED)
    return 0 if finished == len(result.records) and clean else 1


def _cmd_faults(args) -> int:
    """Resilience probe: one faulted iteration, its recovery report."""
    from .analysis.verify import verify_result

    try:
        spec = FaultSpec.parse(args.spec)
    except FaultSpecError as exc:
        print(f"bad fault spec: {exc}", file=sys.stderr)
        return 2
    network = build(args.network, args.batch)
    result = evaluate(network, policy=args.policy, algo=args.algo,
                      verify=args.verify, faults=spec,
                      fault_seed=args.seed)
    report = result.fault_report

    if args.json:
        print(report.to_json(indent=2))
    else:
        clean = evaluate(network, policy=args.policy, algo=args.algo)
        goodput = (clean.total_time / result.total_time
                   if result.total_time > 0 else 0.0)
        rows = [
            ["fault spec", spec.label],
            ["seed", str(args.seed)],
            ["completed", "yes" if result.trainable else
             f"NO ({result.failure})"],
            ["faults injected", str(report.total_faults)],
            ["dma retries", str(report.retries)],
            ["recovery rate", f"{report.recovery_rate:.1%}"],
            ["iteration time", ms_str(result.total_time)],
            ["goodput vs fault-free", f"{goodput:.2f}x"],
        ]
        for outcome in sorted(report.outcomes):
            rows.append([f"  outcome: {outcome}",
                         str(report.outcomes[outcome])])
        print(format_table(
            ["metric", "value"], rows,
            title=f"{network.name} under {result.label} with faults",
        ))

    ok = result.trainable
    if args.verify:
        sanitizer = verify_result(result, network=network)
        print()
        print(sanitizer.render_text())
        ok = ok and sanitizer.ok
    if args.trace:
        from .sim import save_trace

        save_trace(args.trace, result.timeline, result.usage,
                   process_name=f"{network.name} faulted")
        print(f"wrote {args.trace}")
    return 0 if ok else 1


def _cmd_metrics(args) -> int:
    """One instrumented run, exported as pure Prometheus text or JSON.

    Unlike ``evaluate --metrics`` (report + export), this prints *only*
    the export, so the output can be scraped or diffed against the
    golden fixtures in ``tests/golden/``.
    """
    try:
        faults = _parse_faults(args)
    except FaultSpecError as exc:
        print(f"bad fault spec: {exc}", file=sys.stderr)
        return 2
    obs = _make_obs()

    if args.schedule:
        from .sched import Job, schedule_jobs

        try:
            jobs = [
                Job.parse(spec, index)
                for index, spec in enumerate(args.jobs.split(","))
                if spec.strip()
            ]
        except (KeyError, ValueError) as exc:
            print(f"bad job spec: {exc}", file=sys.stderr)
            return 2
        budget = int(args.budget_gb * (1 << 30))
        schedule_jobs(jobs, system=PAPER_SYSTEM, policy=args.sched_policy,
                      budget_bytes=budget, faults=faults,
                      fault_seed=args.fault_seed, obs=obs)
        meta = {"command": "schedule", "policy": args.sched_policy,
                "budget_gb": args.budget_gb,
                "fault_spec": faults.label if faults else ""}
    else:
        if not args.network:
            print("metrics: give a network or --schedule", file=sys.stderr)
            return 2
        network = build(args.network, args.batch)
        try:
            with _cache_observed(obs):
                evaluate(network, policy=args.policy, algo=args.algo,
                         faults=faults, fault_seed=args.fault_seed, obs=obs)
        except ValueError as exc:
            if faults is None:
                raise
            print(f"faults: {exc}", file=sys.stderr)
            return 2
        meta = {"command": "evaluate", "network": network.name,
                "policy": args.policy, "algo": args.algo,
                "fault_spec": faults.label if faults else ""}

    text = _render_metrics(obs, args.format, meta=meta)
    if not text.endswith("\n"):
        text += "\n"
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_verify(args) -> int:
    """Exit-code contract (both output formats): 0 when every report is
    free of errors (warnings do not fail the gate), 1 when any finding
    of error severity exists, 2 on usage errors.  The JSON payload's
    ``ok`` field mirrors the 0-vs-1 decision and ``rule_counts``
    aggregates findings per rule."""
    from .analysis.diagnostics import render_reports_json
    from .analysis.verify import (SWEEP_POLICIES, verify_point,
                                  verify_schedule, verify_zoo)

    mode = "static" if args.static else "hybrid" if args.hybrid \
        else "dynamic"
    reports = []
    if args.all_zoo:
        reports.extend(verify_zoo(batch=args.batch, jobs=args.jobs,
                                  mode=mode))
        if mode != "static":
            # The multi-tenant scheduler's shared-pool schedules, one
            # per admission policy over the headline workload.  Static
            # mode skips them: they exist only as simulation artifacts,
            # and --static promises to execute none.
            from .sched import Job, schedule_jobs

            jobs = [Job.parse(spec, index)
                    for index, spec in enumerate(DEFAULT_WORKLOAD.split(","))]
            for policy in ("fifo", "sjf", "best_fit"):
                result = schedule_jobs(jobs, system=PAPER_SYSTEM,
                                       policy=policy)
                reports.append(verify_schedule(result))
    elif args.network:
        from .analysis.static_plan import verify_point_static

        network = build(args.network, args.batch)
        points = [(args.policy, args.algo)] if args.policy \
            else list(SWEEP_POLICIES)
        for policy, algo in points:
            if mode == "dynamic":
                reports.append(verify_point(network, policy, algo))
            else:
                report = verify_point_static(network, policy, algo)
                if mode == "hybrid" and not report.ok:
                    report = verify_point(network, policy, algo)
                reports.append(report)
    else:
        print("verify: give a network or --all-zoo", file=sys.stderr)
        return 2

    ok = all(r.ok for r in reports)
    if args.format == "json":
        print(render_reports_json(reports))
    else:
        for report in reports:
            print(report.render_text())
        errors = sum(len(r.errors) for r in reports)
        warnings = sum(len(r.warnings) for r in reports)
        print(f"\n{len(reports)} schedule(s) verified: "
              f"{errors} error(s), {warnings} warning(s)")
    return 0 if ok else 1


def _cmd_profile(args) -> int:
    """cProfile any other repro invocation, then print a hotspot table.

    Runs the nested command through :func:`main` under
    :mod:`cProfile`, so the table covers exactly what the user-visible
    command does — plan compilation, simulation, rendering — with no
    import-time noise (imports resolve before the profiler starts).
    See docs/performance.md for how to read the output.
    """
    import cProfile
    import io
    import pstats

    argv = list(args.argv)
    if argv and argv[0] == "--":
        argv = argv[1:]
    if not argv:
        print("profile: missing nested command, e.g. "
              "repro profile evaluate vgg16 --policy all",
              file=sys.stderr)
        return 2
    if argv[0] == "profile":
        print("profile: cannot profile itself", file=sys.stderr)
        return 2

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = main(argv)
    finally:
        profiler.disable()

    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats(args.sort).print_stats(args.top)
    print(f"\n--- profile: {' '.join(argv)} "
          f"(top {args.top} by {args.sort}) ---")
    print(stream.getvalue().rstrip())
    return status


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="vDNN (MICRO 2016) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("networks", help="list the network zoo")

    p_eval = sub.add_parser("evaluate", help="simulate one configuration")
    p_eval.add_argument("network", choices=available())
    p_eval.add_argument("--batch", type=int, default=None)
    p_eval.add_argument("--policy", default="dyn", choices=POLICIES)
    p_eval.add_argument("--algo", default="p", choices=["m", "p"])
    p_eval.add_argument("--faults", default=None,
                        help="fault spec, e.g. dma=0.1,pcie=0.5,jitter=0.2")
    p_eval.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the deterministic fault stream")
    p_eval.add_argument("--metrics", nargs="?", const="prom",
                        choices=["prom", "json"], default=None,
                        help="append the run's metrics export "
                             "(Prometheus text by default)")

    p_sweep = sub.add_parser("sweep", help="full policy sweep")
    p_sweep.add_argument("network", choices=available())
    p_sweep.add_argument("--batch", type=int, default=None)
    p_sweep.add_argument("--jobs", type=int, default=None,
                         help="worker processes for the sweep "
                              "(default $REPRO_JOBS or 1)")

    p_cap = sub.add_parser("capacity", help="max trainable batch per policy")
    p_cap.add_argument("network", choices=available())
    p_cap.add_argument("--batch", type=int, default=None)
    p_cap.add_argument("--limit", type=int, default=512)

    p_plan = sub.add_parser("plan", help="project a full training run")
    p_plan.add_argument("network", choices=available())
    p_plan.add_argument("--batch", type=int, default=None)
    p_plan.add_argument("--dataset-size", type=int, default=1_281_167)
    p_plan.add_argument("--epochs", type=int, default=74)

    p_fig = sub.add_parser("figures", help="regenerate paper figures")
    p_fig.add_argument("figure", nargs="?", default="all",
                       choices=["all", "fig01", "fig04", "fig05", "fig06",
                                "fig11", "fig12", "fig13", "fig14", "fig15",
                                "headline"])
    p_fig.add_argument("--out", default=None,
                       help="directory to write <figure>.txt files into")
    p_fig.add_argument("--jobs", type=int, default=None,
                       help="worker processes for sweep-backed figures "
                            "(default $REPRO_JOBS or 1)")

    p_demo = sub.add_parser("train-demo",
                            help="real numpy training under a policy")
    p_demo.add_argument("--policy", default="all",
                        choices=["none", "all", "conv"])
    p_demo.add_argument("--steps", type=int, default=5)
    p_demo.add_argument("--batch", type=int, default=8)

    p_sched = sub.add_parser(
        "schedule", help="pack concurrent training jobs onto one GPU")
    p_sched.add_argument(
        "--jobs", default=DEFAULT_WORKLOAD,
        help="comma-separated job specs, each network[:batch[:iterations]]")
    p_sched.add_argument("--policy", default="best_fit",
                         choices=["fifo", "sjf", "best_fit"])
    p_sched.add_argument("--budget-gb", type=float, default=12.0,
                         help="shared GPU memory budget in GiB")
    p_sched.add_argument("--trace", default=None,
                         help="write a Chrome trace with one lane per job")
    p_sched.add_argument("--faults", default=None,
                         help="fault spec with timed events, e.g. "
                              "shrink@10=0.5,evict@5=vgg16#1")
    p_sched.add_argument("--fault-seed", type=int, default=0,
                         help="seed recorded on the fault report")
    p_sched.add_argument("--metrics", nargs="?", const="prom",
                         choices=["prom", "json"], default=None,
                         help="append the schedule's metrics export "
                              "(Prometheus text by default)")

    p_serve = sub.add_parser(
        "serve", help="online inference serving with demand layering")
    p_serve.add_argument("--arrivals", default="poisson:rate=100,seed=0",
                         help="arrival spec: poisson:rate=200,seed=7 | "
                              "trace:times=0;0.1;.. | diurnal:.. | burst:..")
    p_serve.add_argument("--models", default="vgg16,googlenet,alexnet",
                         help="comma-separated name[:priority] model list")
    p_serve.add_argument("--budget", default="4GiB",
                         help="device memory budget (e.g. 4GiB, 512MiB)")
    p_serve.add_argument("--slo", type=float, default=250.0,
                         help="latency SLO in milliseconds")
    p_serve.add_argument("--residency", default="auto",
                         choices=["auto", "resident", "layered", "pinned"],
                         help="weight residency policy (auto = fair-share "
                              "heuristic per model)")
    p_serve.add_argument("--window", default="64MiB",
                         help="demand-layering sliding window size")
    p_serve.add_argument("--pinned", default="128MiB",
                         help="on-device weight budget for --residency "
                              "pinned")
    p_serve.add_argument("--requests", type=int, default=500,
                         help="request-stream length to generate")
    p_serve.add_argument("--batch", type=int, default=1,
                         help="per-request batch size")
    p_serve.add_argument("--gpu", default=None,
                         help="GPU preset: titanx, hbm, jetson")
    p_serve.add_argument("--metrics", nargs="?", const="prom",
                         choices=["prom", "json"], default=None,
                         help="append the run's metrics export")
    p_serve.add_argument("--trace", default=None,
                         help="write a Chrome trace with one lane per "
                              "model")
    p_serve.add_argument("--faults", default=None,
                         help="fault spec, e.g. dma=0.1,pcie=0.5,"
                              "shrink@10=0.5,evict@5=vgg16")
    p_serve.add_argument("--fault-seed", type=int, default=0)
    p_serve.add_argument("--format", choices=["table", "json"],
                         default="table",
                         help="report rendering (json = stable schema)")

    p_cluster = sub.add_parser(
        "cluster", help="fleet scheduling across an N-GPU topology")
    p_cluster.add_argument(
        "--jobs", default=DEFAULT_CLUSTER_WORKLOAD,
        help="comma-separated job specs, each "
             "network[:batch[:iterations[:gpus]]] (gpus > 1 = "
             "data-parallel gang with ring allreduce)")
    p_cluster.add_argument("--topology", default="pcie-switch",
                           choices=["pcie-switch", "nvlink-ring",
                                    "nvlink-mesh"],
                           help="cluster interconnect preset")
    p_cluster.add_argument("--gpus", type=int, default=4,
                           help="GPUs in the cluster")
    p_cluster.add_argument("--placement", default="bin_pack",
                           choices=["bin_pack", "spread"],
                           help="GPU placement policy")
    p_cluster.add_argument("--budget-gb", type=float, default=12.0,
                           help="per-GPU memory budget in GiB")
    p_cluster.add_argument("--arrival-rate", type=float, default=0.0,
                           help="Poisson arrival rate in jobs/s "
                                "(0 = all jobs arrive at t=0)")
    p_cluster.add_argument("--seed", type=int, default=0,
                           help="seed for the deterministic arrival "
                                "stream")
    p_cluster.add_argument("--no-preempt", action="store_true",
                           help="disable priority preempt-and-migrate")
    p_cluster.add_argument("--contention", action="store_true",
                           help="also print each gang's allreduce/offload "
                                "contention across every topology preset")
    p_cluster.add_argument("--verify", action="store_true",
                           help="run the schedule sanitizer on every "
                                "worker's trace")
    p_cluster.add_argument("--metrics", nargs="?", const="prom",
                           choices=["prom", "json"], default=None,
                           help="append the run's metrics export")

    p_faults = sub.add_parser(
        "faults", help="simulate under deterministic fault injection")
    p_faults.add_argument("network", choices=available())
    p_faults.add_argument("--batch", type=int, default=None)
    p_faults.add_argument("--policy", default="all",
                          choices=["all", "conv", "comp", "dyn"])
    p_faults.add_argument("--algo", default="p", choices=["m", "p"])
    p_faults.add_argument("--spec",
                          default="dma=0.05,pcie=0.7,jitter=0.1",
                          help="fault spec (see docs/architecture.md)")
    p_faults.add_argument("--seed", type=int, default=0,
                          help="seed for the deterministic fault stream")
    p_faults.add_argument("--json", action="store_true",
                          help="print the FaultReport as JSON")
    p_faults.add_argument("--verify", action="store_true",
                          help="run the schedule sanitizer on the "
                               "faulted trace")
    p_faults.add_argument("--trace", default=None,
                          help="write a Chrome trace of the faulted run")

    p_metrics = sub.add_parser(
        "metrics", help="instrumented run, metrics-only export")
    p_metrics.add_argument("network", nargs="?", choices=available(),
                           help="network to evaluate (omit with --schedule)")
    p_metrics.add_argument("--batch", type=int, default=None)
    p_metrics.add_argument("--policy", default="dyn", choices=POLICIES)
    p_metrics.add_argument("--algo", default="p", choices=["m", "p"])
    p_metrics.add_argument("--faults", default=None,
                           help="fault spec, e.g. dma=0.1,pcie=0.5")
    p_metrics.add_argument("--fault-seed", type=int, default=0)
    p_metrics.add_argument("--schedule", action="store_true",
                           help="instrument a multi-tenant schedule "
                                "instead of one evaluation")
    p_metrics.add_argument("--jobs", default=DEFAULT_WORKLOAD,
                           help="job specs for --schedule (same syntax "
                                "as the schedule command)")
    p_metrics.add_argument("--sched-policy", default="best_fit",
                           choices=["fifo", "sjf", "best_fit"],
                           help="admission policy for --schedule")
    p_metrics.add_argument("--budget-gb", type=float, default=12.0,
                           help="memory budget for --schedule")
    p_metrics.add_argument("--format", choices=["prom", "json"],
                           default="prom")
    p_metrics.add_argument("--out", default=None,
                           help="write the export to a file instead of "
                                "stdout")

    p_prof = sub.add_parser(
        "profile", help="cProfile another repro invocation")
    p_prof.add_argument("--top", type=int, default=25,
                        help="rows of the hotspot table to print")
    p_prof.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"],
                        help="pstats sort key for the table")
    p_prof.add_argument("argv", nargs=argparse.REMAINDER,
                        help="the repro command to profile, e.g. "
                             "evaluate vgg16 --policy all")

    p_verify = sub.add_parser(
        "verify", help="run the schedule sanitizer over simulated plans")
    p_verify.add_argument("network", nargs="?", choices=available(),
                          help="verify one network (default: whole sweep "
                               "grid for it)")
    p_verify.add_argument("--batch", type=int, default=None)
    p_verify.add_argument("--policy", default=None, choices=POLICIES,
                          help="verify one policy point instead of the grid")
    p_verify.add_argument("--algo", default="p", choices=["m", "p"])
    p_verify.add_argument("--all-zoo", action="store_true",
                          help="verify every zoo network x policy point "
                               "plus the multi-tenant schedules")
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="worker processes for the sweep")
    verify_mode = p_verify.add_mutually_exclusive_group()
    verify_mode.add_argument("--static", action="store_true",
                             help="prove the SP4xx invariants by abstract "
                                  "interpretation of the compiled plans; "
                                  "no simulation executes")
    verify_mode.add_argument("--hybrid", action="store_true",
                             help="static sweep first, dynamic "
                                  "re-verification only for points the "
                                  "static pass could not certify")
    p_verify.add_argument("--format", choices=["text", "json"],
                          default="text")

    return parser


_COMMANDS = {
    "networks": _cmd_networks,
    "evaluate": _cmd_evaluate,
    "sweep": _cmd_sweep,
    "capacity": _cmd_capacity,
    "plan": _cmd_plan,
    "figures": _cmd_figures,
    "train-demo": _cmd_train_demo,
    "schedule": _cmd_schedule,
    "serve": _cmd_serve,
    "cluster": _cmd_cluster,
    "verify": _cmd_verify,
    "faults": _cmd_faults,
    "metrics": _cmd_metrics,
    "profile": _cmd_profile,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
