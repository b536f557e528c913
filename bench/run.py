"""The repository benchmark: five workloads, end-to-end and per-layer.

Measure (each repetition in a fresh single-threaded worker process, one
at a time, round-robin across workloads):

    python3 bench/run.py [--reps R | --seconds T] [--seed S]
                         [--workloads a,b,...] [--trace] [--json DIR]

``--workload NAME --seed N --seconds T --trace 0|1`` is the same run for
one workload.  The last line of standard output is always one JSON
object ``{"correct", "attempted", "failed", "metrics"}``: with tracing
off the metrics are the ``end_to_end`` entries of BENCHMARK.json, with
tracing on its ``per_layer`` entries.  The exit code is 1 when any
output check fails.

Compare two ``--json`` results (parent first):

    python3 bench/run.py --compare PARENT/results.json CHANGE/results.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
#: Host metrics every untraced repetition measures.  Times are at
#: nominal host speed (worker.py); the raw_ times are as measured,
#: shown for reference and bound to nothing.
HOST_METRICS = ("wall_s", "setup_s", "peak_rss_mb", "raw_wall_s",
                "raw_setup_s")
#: Time-budgeted runs still take this many repetitions for a median.
MIN_REPS = 3
#: A worker that takes longer than this is killed and counted as failed.
REP_TIMEOUT_S = 120

sys.path.insert(0, str(BENCH))
from workloads import MODELED, WORKLOADS  # noqa: E402


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def units(benchmark: dict) -> Dict[str, str]:
    table = {m["name"]: m["unit"]
             for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    table.update(failed_frac="fraction", raw_wall_s="s", raw_setup_s="s")
    return table


def worker_env() -> Dict[str, str]:
    """The parent's environment minus every knob that changes the program.

    ``REPRO_CACHE_DIR`` would serve repetitions warm from disk,
    ``REPRO_JOBS`` forks workers, and ``REPRO_NO_CACHE`` /
    ``REPRO_CACHE_SIZE`` change the cache layer.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def host_fingerprint() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit or "unknown"}


def run_rep(workload: str, seed: int, quick: bool, trace: bool,
            chrome: Optional[Path] = None) -> dict:
    """One repetition in a fresh worker; a crash counts as a failure."""
    command = [sys.executable, str(WORKER), "--workload", workload,
               "--seed", str(seed)]
    command += ["--trace"] if trace else []
    command += ["--quick"] if quick else []
    command += ["--chrome", str(chrome)] if chrome else []
    started = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--spawned", repr(started)], env=worker_env(),
            capture_output=True, text=True, timeout=REP_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode == 0 and lines:
            return json.loads(lines[-1])
        detail = f"worker exited {proc.returncode}: {proc.stderr[-2000:]}"
    except (subprocess.TimeoutExpired, ValueError) as exc:
        detail = f"worker failed: {exc}"
    return {"attempted": 1, "failed": 1, "problems": [detail]}


def measure(names: List[str], args) -> Dict[str, dict]:
    """Untraced repetitions, round-robin, then one traced repetition each.

    With ``--seconds`` a workload stops once it has ``MIN_REPS``
    repetitions and the next would overrun its budget (half of it when
    tracing, which still needs its traced repetition).
    """
    budget = args.seconds
    if budget is not None and args.trace:
        budget /= 2
    reps: Dict[str, list] = {name: [] for name in names}
    spent = {name: 0.0 for name in names}
    active = list(names)
    while active:
        for name in list(active):
            start = time.monotonic()
            reps[name].append(run_rep(name, args.seed, args.quick, False))
            last = time.monotonic() - start
            spent[name] += last
            count = len(reps[name])
            if (count >= args.reps if budget is None
                    else count >= MIN_REPS and spent[name] + last > budget):
                active.remove(name)
    traced = {}
    if args.trace:
        for name in names:
            chrome = Path(args.json) / f"{name}.trace.json" if args.json \
                else None
            traced[name] = run_rep(name, args.seed, args.quick, True, chrome)
    return {name: summarize(reps[name], traced.get(name)) for name in names}


def _stats(samples: List[float]) -> dict:
    q1, _median, q3 = statistics.quantiles(samples, n=4) \
        if len(samples) > 1 else samples * 3
    return {"median": statistics.median(samples), "q1": q1, "q3": q3,
            "n": len(samples), "samples": samples}


def summarize(reps: List[dict], traced: Optional[dict]) -> dict:
    """Medians and quartiles, plus the determinism and neutrality checks."""
    everything = reps + ([traced] if traced else [])
    problems = [p for rep in everything for p in rep["problems"]]
    attempted = sum(rep["attempted"] for rep in everything)
    failed = sum(rep["failed"] for rep in everything)
    good = [rep for rep in reps if "digest" in rep]
    metrics = {name: _stats([rep[name] for rep in good])
               for name in HOST_METRICS if good}
    metrics["failed_frac"] = _stats([failed / attempted])
    outputs = {(rep["digest"], json.dumps(rep["modeled"], sort_keys=True))
               for rep in good}
    if len(outputs) > 1:
        problems.append("repetitions disagree on the simulated outputs")
    if good:
        for name, value in good[0]["modeled"].items():
            metrics[name] = _stats([value] * len(good))
    layers = None
    if traced is not None and "layers" in traced:
        if good and (traced["digest"] != good[0]["digest"]
                     or traced["modeled"] != good[0]["modeled"]):
            problems.append("tracing changed the simulated outputs")
        layers = dict.fromkeys(MODELED, 0)
        layers.update(traced["modeled"])
        layers.update(traced["layers"])
        if good:
            untraced = metrics["wall_s"]["median"]
            layers["trace_overhead_pct"] = \
                100.0 * (traced["wall_s"] - untraced) / untraced
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "digest": good[0]["digest"] if good else None,
            "end_to_end": metrics, "per_layer": layers, "reps": reps,
            "traced": traced}


# ----------------------------------------------------------------------
def contract_metrics(summary: dict, benchmark: dict, trace: bool) -> dict:
    """The result line's metrics: every end_to_end or per_layer entry."""
    wanted = benchmark["per_layer" if trace else "end_to_end"]
    source = summary["per_layer"] if trace else {
        name: stats["median"] for name, stats in summary["end_to_end"].items()}
    if source is None or any(m["name"] not in source for m in wanted):
        return {}
    return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
            for m in wanted}


def print_table(results: Dict[str, dict], benchmark: dict,
                trace: bool) -> None:
    unit_of = units(benchmark)
    for name, summary in results.items():
        print(f"{name}: attempted {summary['attempted']}, "
              f"failed {summary['failed']}, "
              f"output sha256 {summary['digest']}")
        print(f"  {'end-to-end metric':28} {'unit':10} {'median':>12} "
              f"{'q1':>12} {'q3':>12} {'n':>3}")
        for metric, stats in summary["end_to_end"].items():
            print(f"  {metric:28} {unit_of.get(metric, ''):10} "
                  f"{stats['median']:12.6g} {stats['q1']:12.6g} "
                  f"{stats['q3']:12.6g} {stats['n']:3d}")
        if trace and summary["per_layer"]:
            print(f"  {'per-layer metric (traced)':41} {'unit':10} "
                  f"{'value':>12}")
            for metric in sorted(set(summary["per_layer"]) & set(unit_of)):
                print(f"  {metric:41} {unit_of.get(metric, ''):10} "
                      f"{summary['per_layer'][metric]:12.6g}")
        for problem in summary["problems"]:
            print(f"  PROBLEM: {problem}")


def final_line(results: Dict[str, dict], benchmark: dict,
               trace: bool) -> dict:
    per_workload = {name: contract_metrics(summary, benchmark, trace)
                    for name, summary in results.items()}
    correct = all(not s["problems"] and not s["failed"]
                  and per_workload[name] for name, s in results.items())
    return {
        "correct": correct,
        "attempted": sum(s["attempted"] for s in results.values()),
        "failed": sum(s["failed"] for s in results.values()),
        "metrics": next(iter(per_workload.values()))
        if len(per_workload) == 1 else per_workload,
    }


# ----------------------------------------------------------------------
def compare(parent_path: str, change_path: str) -> int:
    """Paired comparison by the choosing-metrics rules (README.md)."""
    with open(parent_path) as handle:
        parent = json.load(handle)
    with open(change_path) as handle:
        change = json.load(handle)
    benchmark = load_benchmark()
    bounds = {m["name"]: m["bound"] for m in benchmark["end_to_end"]}
    better = {m["name"]: m["better"]
              for m in benchmark["end_to_end"] + benchmark["per_layer"]}
    better["failed_frac"] = "lower"
    print(f"{'workload':14} {'metric':26} {'parent median [q1, q3]':34} "
          f"{'change median [q1, q3]':34} {'win':>5} {'delta':>8} "
          f"{'bound':>6}  verdict")
    worst = 0
    for workload, p_summary in parent["workloads"].items():
        c_summary = change["workloads"].get(workload)
        if c_summary is None:
            continue
        for metric, p in p_summary["end_to_end"].items():
            c = c_summary["end_to_end"].get(metric)
            if c is None:
                continue
            sign = 1.0 if better.get(metric, "lower") == "lower" else -1.0
            pairs = list(zip(p["samples"], c["samples"]))
            wins = sum(sign * (cv - pv) < 0 for pv, cv in pairs)
            win = wins / len(pairs) if pairs else 0.0
            base = p["median"]
            delta = sign * (c["median"] - base) / abs(base) if base else \
                (0.0 if c["median"] == base else float("inf"))
            bound = bounds.get(metric)
            if metric in HOST_METRICS and bound is None:
                verdict, bound_text = "info", "-"
            else:
                verdict = _verdict(metric, bound, delta, win, p, c, sign)
                bound_text = f"{bound:.0%}" if bound is not None else "exact"
            worst = max(worst, verdict in ("REGRESSION", "CHANGED"))
            print(f"{workload:14} {metric:26} {_cell(p):34} {_cell(c):34} "
                  f"{win:5.2f} {delta:+8.1%} {bound_text:>6}  {verdict}")
    return worst


def _cell(stats: dict) -> str:
    return (f"{stats['median']:.6g} [{stats['q1']:.6g}, "
            f"{stats['q3']:.6g}]")


def _verdict(metric: str, bound: Optional[float], delta: float, win: float,
             p: dict, c: dict, sign: float) -> str:
    if bound is None:
        # Modeled metrics and the failure fraction admit no change.
        if c["median"] == p["median"]:
            return "same"
        if metric == "failed_frac":
            return "REGRESSION" if delta > 0 else "improved"
        return "CHANGED"
    spread = (p["q3"] - p["q1"]) / abs(p["median"]) if p["median"] else 0.0
    all_better = all(sign * (cv - pv) < 0
                     for cv in c["samples"] for pv in p["samples"])
    all_worse = all(sign * (cv - pv) > 0
                    for cv in c["samples"] for pv in p["samples"])
    if delta > bound:
        return "unresolved" if spread > bound and not all_worse \
            else "REGRESSION"
    if all_better or (win >= 0.9 and delta < 0
                      and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]):
        return "gain"
    return "unresolved" if spread > bound else "within bound"


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]))
    parser.add_argument("--workloads", "--workload", default=None,
                        help="comma-separated (default: all five)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time budget per workload instead of --reps")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--json", metavar="DIR",
                        help="write results.json and Chrome traces here")
    parser.add_argument("--quick", action="store_true",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--compare", nargs=2,
                        metavar=("PARENT.json", "CHANGE.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.reps < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--reps and --seconds must be positive")
    benchmark = load_benchmark()
    if args.json:
        Path(args.json).mkdir(parents=True, exist_ok=True)

    results = measure(names, args)
    print_table(results, benchmark, bool(args.trace))
    if args.json:
        with open(Path(args.json) / "results.json", "w") as handle:
            json.dump({"host": host_fingerprint(), "seed": args.seed,
                       "quick": args.quick, "workloads": results},
                      handle, indent=1)
    line = final_line(results, benchmark, bool(args.trace))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
