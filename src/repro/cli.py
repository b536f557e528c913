"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``networks`` — list the zoo and each configuration's baseline footprint;
* ``evaluate`` — simulate one network under one policy/algorithm, with
  optional fault injection (``--faults``/``--fault-seed``) and schedule
  sanitizer (``--verify``);
* ``sweep`` — the full Figure-11/14 policy sweep for one network;
* ``capacity`` — max trainable batch per policy;
* ``plan`` — project a full training run;
* ``figures`` — regenerate one or all paper figures;
* ``train-demo`` — run real numpy training under a memory budget;
* ``schedule`` — pack concurrent training jobs onto one virtualized GPU;
* ``serve`` — online inference serving over a multiplexed model zoo,
  weights resident or demand-layered; see docs/serving.md;
* ``cluster`` — fleet scheduling across an N-GPU topology;
* ``verify`` — run the schedule sanitizer (race + memory-safety passes)
  over simulated schedules; see docs/analysis.md;
* ``profile`` — cProfile any other command.

Options shared by several commands are declared once, as parent
parsers: the training point (network, ``--batch``, ``--policy``,
``--algo``), faults, and output (``--metrics``/``--out``, ``--trace``,
``--format``).  ``--metrics [prom|json]`` appends the run's metrics
export to the report; ``--out FILE`` writes the export alone to FILE
(docs/observability.md).  Bad input exits 2 with a one-line message.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from typing import List, Optional

from .core import (capacity_report, compare_policies, evaluate,
                   oracular_baseline)
from .core.api import POLICIES
from .faults import FaultSpec, FaultSpecError
from .hw import PAPER_SYSTEM
from .reporting import format_table, gb_str, ms_str
from .zoo import available, build


class _UsageError(ValueError):
    """Bad input found after parsing: :func:`main` prints it, exits 2."""


def _positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    if not text.isdigit() or int(text) <= 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


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
    rejected with the same usage error as unparseable text, so ``-4GiB``
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
        raise _UsageError(
            f"bad size: cannot parse size {text!r} (try 4GiB, 512MiB, 65536)"
        )
    return nbytes


def _job_list(text: str, parse) -> list:
    """A comma-separated job list, each spec through ``parse(spec, i)``."""
    try:
        jobs = [parse(spec, index)
                for index, spec in enumerate(text.split(","))
                if spec.strip()]
    except (KeyError, ValueError) as exc:
        raise _UsageError(f"bad job spec: {exc}") from None
    if not jobs:
        raise _UsageError("no jobs given")
    return jobs


def _fault_spec(args) -> Optional[FaultSpec]:
    """``--faults`` parsed, or ``None`` when the run is fault-free."""
    if not args.faults:
        return None
    try:
        return FaultSpec.parse(args.faults)
    except FaultSpecError as exc:
        raise _UsageError(f"bad fault spec: {exc}") from None


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


def _make_obs(args):
    """An instrumentation sink when ``--metrics`` or ``--out`` asks."""
    if not (args.metrics or args.out):
        return None
    from .obs import Instrumentation

    return Instrumentation()


def _emit_metrics(args, obs, meta: dict) -> None:
    """Append the run's metrics export, or write it alone to ``--out``."""
    if not (args.metrics or args.out):
        return
    from .obs import metrics_json, prometheus_text

    obs.flush()  # resolve deferred end-of-run summaries
    if args.metrics == "json":
        text = metrics_json(obs.registry, spans=obs.spans, meta=meta)
    else:
        text = prometheus_text(obs.registry)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")
        print(f"wrote {args.out}")
    else:
        print("\n" + text.rstrip("\n"))


def _write_trace(args, timeline, usage=None, *, process_name: str,
                 obs=None) -> None:
    """Write the run's Chrome trace when ``--trace FILE`` asks."""
    if not args.trace:
        return
    from .sim import save_trace

    save_trace(args.trace, timeline, usage, process_name=process_name,
               spans=obs.spans.spans if obs is not None else None)
    print(f"wrote {args.trace}")


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
    """One training point; exit 1 when it is untrainable or, under
    ``--verify``, when the sanitizer finds an error."""
    network = build(args.network, args.batch)
    faults = _fault_spec(args)
    obs = _make_obs(args)
    try:
        with _cache_observed(obs):
            result = evaluate(network, policy=args.policy, algo=args.algo,
                              verify=args.verify, faults=faults,
                              fault_seed=args.fault_seed, obs=obs)
    except ValueError as exc:
        if faults is None:
            raise
        raise _UsageError(f"faults: {exc}") from None
    report = result.fault_report
    goodput = None
    if report is not None:
        clean = evaluate(network, policy=args.policy, algo=args.algo)
        goodput = (clean.total_time / result.total_time
                   if result.total_time > 0 else 0.0)
    oracle = oracular_baseline(network)
    perf = (oracle.feature_extraction_time / result.feature_extraction_time
            if result.feature_extraction_time else None)
    if args.format == "json":
        print(json.dumps({
            "network": network.name, "point": result.label,
            "trainable": result.trainable, "failure": result.failure,
            "max_usage_bytes": result.max_usage_bytes,
            "avg_usage_bytes": result.avg_usage_bytes,
            "offload_bytes": result.offload_bytes,
            "iteration_seconds": result.total_time,
            "compute_stall_seconds": result.compute_stall_seconds,
            "perf_vs_oracle": perf,
            "faults": report.to_dict() if report is not None else None,
            "goodput_vs_fault_free": goodput,
        }, sort_keys=True, indent=2))
    else:
        rows = [
            ["trainable", "yes" if result.trainable else
             f"NO ({result.failure})"],
            ["max memory", gb_str(result.max_usage_bytes)],
            ["avg memory", gb_str(result.avg_usage_bytes)],
            ["offloaded / iteration", gb_str(result.offload_bytes)],
            ["iteration time", ms_str(result.total_time)],
            ["compute stalls", ms_str(result.compute_stall_seconds)],
            ["perf vs oracular baseline",
             f"{perf:.2f}" if perf is not None else "-"],
        ]
        print(format_table(
            ["metric", "value"], rows,
            title=f"{network.name} under {result.label}",
        ))
        if report is not None:
            print()
            print(f"Faults (spec {report.spec.label}, seed {report.seed}):")
            for line in report.summary_lines():
                print(f"  {line}")
            print(f"  goodput vs fault-free {goodput:.2f}x")
    ok = result.trainable
    if args.verify:
        from .analysis.verify import verify_result

        sanitizer = verify_result(result, network=network)
        print()
        print(sanitizer.render_text())
        ok = ok and sanitizer.ok
    _emit_metrics(args, obs, {
        "command": "evaluate", "network": network.name,
        "policy": args.policy, "algo": args.algo,
        "fault_spec": faults.label if faults else "",
    })
    _write_trace(args, result.timeline, result.usage,
                 process_name=f"{network.name} {result.label}", obs=obs)
    return 0 if ok else 1


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

    jobs = _job_list(args.jobs, Job.parse)
    budget = _parse_bytes(args.budget)
    faults = _fault_spec(args)
    obs = _make_obs(args)
    result = schedule_jobs(jobs, system=PAPER_SYSTEM, policy=args.policy,
                           budget_bytes=budget, faults=faults,
                           fault_seed=args.fault_seed, obs=obs)
    print(schedule_report(result))
    _emit_metrics(args, obs, {
        "command": "schedule", "policy": args.policy,
        "budget_gb": budget / (1 << 30),
        "fault_spec": faults.label if faults else "",
    })
    _write_trace(args, result.timeline, result.usage,
                 process_name=f"multi-tenant {args.policy}", obs=obs)
    finished = sum(1 for r in result.records
                   if r.state is JobState.FINISHED)
    return 0 if finished == len(result.records) else 1


def _cmd_serve(args) -> int:
    """Online inference serving: drain one open-loop scenario."""
    from .hw import SystemConfig, gpu_preset
    from .serve import (ArrivalSpec, ArrivalSpecError, ServeConfig,
                        ServeConfigError, parse_models, serve_json,
                        serve_report, simulate_serving)
    from .serve.layering import ServePlanError

    try:
        arrivals = ArrivalSpec.parse(args.arrivals)
        models = tuple(parse_models(args.models))
    except ArrivalSpecError as exc:
        raise _UsageError(f"bad serving scenario: {exc}") from None
    budget = _parse_bytes(args.budget)
    window = _parse_bytes(args.window)
    pinned = _parse_bytes(args.pinned)
    faults = _fault_spec(args)
    system = PAPER_SYSTEM
    if args.gpu:
        try:
            system = SystemConfig(gpu=gpu_preset(args.gpu))
        except KeyError as exc:
            raise _UsageError(f"bad gpu preset: {exc.args[0]}") from None
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
        raise _UsageError(f"serving failed: {exc}") from None
    if args.format == "json":
        print(json.dumps(serve_json(result), sort_keys=True, indent=2))
    else:
        print(serve_report(result))
    _emit_metrics(args, result.obs, {
        "command": "serve", "arrivals": arrivals.label,
        "budget_bytes": budget,
    })
    _write_trace(args, result.timeline,
                 process_name=f"serving {arrivals.label}", obs=result.obs)
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

    jobs = _job_list(args.jobs, ClusterJob.parse)
    budget = _parse_bytes(args.budget)
    try:
        topology = make_topology(args.topology, args.gpus)
    except (KeyError, ValueError) as exc:
        raise _UsageError(f"bad topology: {exc}") from None
    obs = _make_obs(args)
    try:
        result = schedule_fleet(
            jobs, topology=topology, placement=args.placement,
            budget_bytes=budget, arrival_rate=args.arrival_rate,
            seed=args.seed, preemption=not args.no_preempt, obs=obs,
        )
    except (KeyError, ValueError) as exc:
        raise _UsageError(f"cluster run failed: {exc}") from None

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

    _emit_metrics(args, obs, {
        "command": "cluster", "topology": topology.name,
        "gpus": topology.num_gpus, "placement": args.placement,
    })
    finished = sum(1 for r in result.records
                   if r.state is JobState.FINISHED)
    return 0 if finished == len(result.records) and clean else 1


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

            jobs = _job_list(DEFAULT_WORKLOAD, Job.parse)
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
        raise _UsageError("verify: give a network or --all-zoo")

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
        raise _UsageError("profile: missing nested command, e.g. "
                          "repro profile evaluate vgg16 --policy all")
    if argv[0] == "profile":
        raise _UsageError("profile: cannot profile itself")

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


def _network_options(optional: bool = False) -> argparse.ArgumentParser:
    """The training point's network: a zoo key and its mini-batch."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("network", nargs="?" if optional else None,
                        choices=available())
    parent.add_argument("--batch", type=_positive_int, default=None,
                        help="mini-batch size (default: the network's own)")
    return parent


def _policy_options(default: Optional[str]) -> argparse.ArgumentParser:
    """The training point's vDNN policy and convolution-algorithm mode."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument("--policy", default=default, choices=POLICIES)
    parent.add_argument("--algo", default="p", choices=["m", "p"])
    return parent


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="vDNN (MICRO 2016) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Option groups shared across commands, each declared once.
    faults = argparse.ArgumentParser(add_help=False)
    faults.add_argument("--faults", default=None,
                        help="fault spec, e.g. dma=0.1,pcie=0.5,jitter=0.2 "
                             "or shrink@10=0.5,evict@5=vgg16#1 "
                             "(see docs/architecture.md)")
    faults.add_argument("--fault-seed", type=int, default=0,
                        help="seed for the deterministic fault stream")
    metrics = argparse.ArgumentParser(add_help=False)
    metrics.add_argument("--metrics", nargs="?", const="prom",
                         choices=["prom", "json"], default=None,
                         help="append the run's metrics export "
                              "(Prometheus text by default)")
    metrics.add_argument("--out", metavar="FILE", default=None,
                         help="write the metrics export to FILE instead "
                              "(implies --metrics)")
    trace = argparse.ArgumentParser(add_help=False)
    trace.add_argument("--trace", metavar="FILE", default=None,
                       help="write a Chrome trace of the run, one lane "
                            "per job or model")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=["table", "json"],
                        default="table",
                        help="report rendering (json = stable schema)")

    sub.add_parser("networks", help="list the network zoo")

    p_eval = sub.add_parser(
        "evaluate", help="simulate one configuration",
        parents=[_network_options(), _policy_options("dyn"), faults,
                 metrics, trace, output])
    p_eval.add_argument("--verify", action="store_true",
                        help="run the schedule sanitizer on the run's "
                             "trace")

    p_sweep = sub.add_parser("sweep", help="full policy sweep",
                             parents=[_network_options()])
    p_sweep.add_argument("--jobs", type=int, default=None,
                         help="worker processes for the sweep "
                              "(default $REPRO_JOBS or 1)")

    p_cap = sub.add_parser("capacity", help="max trainable batch per policy",
                           parents=[_network_options()])
    p_cap.add_argument("--limit", type=int, default=512)

    p_plan = sub.add_parser("plan", help="project a full training run",
                            parents=[_network_options()])
    p_plan.add_argument("--dataset-size", type=_positive_int,
                        default=1_281_167)
    p_plan.add_argument("--epochs", type=_positive_int, default=74)

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
    p_demo.add_argument("--batch", type=_positive_int, default=8)

    p_sched = sub.add_parser(
        "schedule", help="pack concurrent training jobs onto one GPU",
        parents=[faults, metrics, trace])
    p_sched.add_argument(
        "--jobs", default=DEFAULT_WORKLOAD,
        help="comma-separated job specs, each network[:batch[:iterations]]")
    p_sched.add_argument("--policy", default="best_fit",
                         choices=["fifo", "sjf", "best_fit"])
    p_sched.add_argument("--budget", default="12GiB",
                         help="shared GPU memory budget (e.g. 12GiB)")

    p_serve = sub.add_parser(
        "serve", help="online inference serving with demand layering",
        parents=[faults, metrics, trace, output])
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
    p_serve.add_argument("--batch", type=_positive_int, default=1,
                         help="per-request batch size")
    p_serve.add_argument("--gpu", default=None,
                         help="GPU preset: titanx, hbm, jetson")

    p_cluster = sub.add_parser(
        "cluster", help="fleet scheduling across an N-GPU topology",
        parents=[metrics])
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
    p_cluster.add_argument("--budget", default="12GiB",
                           help="per-GPU memory budget (e.g. 12GiB)")
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
        "verify", help="run the schedule sanitizer over simulated plans "
                       "(one --policy point, else the network's grid)",
        parents=[_network_options(optional=True), _policy_options(None),
                 output])
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
    "profile": _cmd_profile,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
