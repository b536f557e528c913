"""Overhead gate for the observability layer.

Times the headline simulation configs (the networks behind
``bench_headline``) three ways — uninstrumented (``obs=None``),
:class:`~repro.obs.NullInstrumentation` (every hook a no-op), and full
:class:`~repro.obs.Instrumentation` — and gates two claims:

* **instrumented vs no-op** stays under ``MAX_OVERHEAD``: each hot
  hook *body* (one append to the deferred event log — the counter and
  histogram arithmetic replays lazily when the registry is first read)
  must not grow a hot path.  A registry lookup, an O(events) scan, or
  retained per-run state sneaking into the simulated region fails this
  gate before it ships.
* **no-op vs plain** stays under the same ceiling: with hooks stubbed
  out, all that remains is call dispatch and the ``obs is not None``
  guards, which is the "uninstrumented path is unmeasurably slower"
  claim from the design.

Timing is min-of-N over interleaved repetitions of small inner batches:
the minimum is the run least disturbed by the machine, interleaving
keeps cache warmth symmetric between variants, and batching amortises
timer granularity.  Both claims are gated on the **aggregate** across
all configs — single millisecond-scale configs carry ~±5% scheduler
jitter that no amount of min-taking removes, while the aggregate is
dominated by the longest simulations and is stable; per-config numbers
are still reported, with a loose backstop assert catching a
catastrophically hot hook on any one config.

Results are merged into ``BENCH_perf.json`` (read-modify-write — the
perf-regression bench owns the other keys).  Runs under pytest or
standalone via ``python benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import gc
import json
import time
from pathlib import Path
from typing import Dict

from repro.core.api import PAPER_SYSTEM, algo_config
from repro.core.executor import simulate_vdnn
from repro.core.policy import TransferPolicy
from repro.obs import Instrumentation, NullInstrumentation
from repro.zoo import build

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_perf.json"

#: Relative overhead ceiling for the aggregate (primary) gate.
MAX_OVERHEAD = 0.05
#: Per-config backstop: single ms-scale configs carry ~±5% scheduler
#: jitter even under min-of-N, so the per-config assert only catches a
#: catastrophically hot hook; the aggregate carries the real gate.
CONFIG_BACKSTOP = 0.30
#: Absolute slack (seconds, per simulation) absorbing scheduler jitter
#: that min-of-N cannot fully suppress on ms-scale runs.
ABS_SLACK = 1e-4

#: Simulations per timed sample; amortises timer granularity.
BATCH = 4
REPEATS = 7

#: The bench_headline networks: (zoo key, batch, policy factory, algo).
CONFIGS = (
    ("alexnet", 128, TransferPolicy.vdnn_all, "m"),
    ("overfeat", 128, TransferPolicy.vdnn_all, "m"),
    ("googlenet", 128, TransferPolicy.vdnn_all, "m"),
    ("vgg16", 256, TransferPolicy.vdnn_all, "m"),
)

_results: Dict[str, dict] = {}


def _flush_results() -> None:
    """Merge this bench's sections into BENCH_perf.json.

    Read-modify-write: ``bench_perf_regression`` rewrites the file from
    its own results, so this bench must not clobber those keys (and
    vice versa — it owns only ``obs_overhead``).
    """
    payload = {}
    if RESULTS_PATH.exists():
        try:
            payload = json.loads(RESULTS_PATH.read_text())
        except ValueError:
            payload = {}
    payload["obs_overhead"] = dict(_results)
    RESULTS_PATH.write_text(json.dumps(payload, indent=2) + "\n")


def measure_config(name: str, batch: int, policy_factory, algo: str):
    network = build(name, batch)
    policy = policy_factory()
    algos = algo_config(network, algo)

    # One Instrumentation per variant, constructed OUTSIDE the timed
    # region: real callers (the CLI, the differential suite) build the
    # registry once per run and simulate many times, so the gate times
    # the per-simulation hook cost, not the one-off registry setup.
    null_obs = NullInstrumentation()
    full_obs = Instrumentation()

    def make(obs):
        def sample():
            for _ in range(BATCH):
                simulate_vdnn(network, PAPER_SYSTEM, policy, algos, obs=obs)
        return sample

    variants = {
        "plain": make(None),
        "null": make(null_obs),
        "instrumented": make(full_obs),
    }
    # Warm every variant once, then interleave the timed repetitions so
    # machine drift hits all three equally.  GC stays off during timing:
    # a collection landing inside one variant's sample would be charged
    # to that variant alone.
    for fn in variants.values():
        fn()
    best = {key: float("inf") for key in variants}
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(REPEATS):
            for key, fn in variants.items():
                start = time.perf_counter()
                fn()
                best[key] = min(best[key], time.perf_counter() - start)
    finally:
        if gc_was_enabled:
            gc.enable()
    best = {key: value / BATCH for key, value in best.items()}

    section = {
        "plain_ms": best["plain"] * 1e3,
        "null_ms": best["null"] * 1e3,
        "instrumented_ms": best["instrumented"] * 1e3,
        "null_vs_plain": best["null"] / best["plain"] - 1.0,
        "instrumented_vs_null": best["instrumented"] / best["null"] - 1.0,
        "instrumented_vs_plain":
            best["instrumented"] / best["plain"] - 1.0,
    }
    _results[f"{name}:{batch}:{algo}"] = section
    return section, best


def test_obs_overhead_within_gate():
    totals = {"plain": 0.0, "null": 0.0, "instrumented": 0.0}
    for name, batch, factory, algo in CONFIGS:
        section, best = measure_config(name, batch, factory, algo)
        _flush_results()
        for key, value in best.items():
            totals[key] += value
        label = f"{name}:{batch}:{algo}"
        # Per-config backstop: catches an egregiously hot hook on one
        # config; the slack absorbs per-config scheduler jitter.
        noop_ceiling = best["null"] * (1.0 + CONFIG_BACKSTOP) + ABS_SLACK
        assert best["instrumented"] <= noop_ceiling, (
            f"{label}: instrumented run {section['instrumented_ms']:.3f} ms"
            f" vs no-op {section['null_ms']:.3f} ms — hook bodies cost "
            f"{section['instrumented_vs_null']:.1%}, backstop is "
            f"{CONFIG_BACKSTOP:.0%}")
        plain_ceiling = best["plain"] * (1.0 + CONFIG_BACKSTOP) + ABS_SLACK
        assert best["null"] <= plain_ceiling, (
            f"{label}: no-op instrumentation {section['null_ms']:.3f} ms "
            f"vs uninstrumented {section['plain_ms']:.3f} ms — dispatch "
            f"overhead {section['null_vs_plain']:.1%} exceeds "
            f"{CONFIG_BACKSTOP:.0%}")

    # Primary gate, on the aggregate across every headline config: the
    # sum is dominated by the longest (most measurable) simulations, so
    # single-config timer jitter cannot flip it — no slack needed.
    _results["aggregate"] = {
        "plain_ms": totals["plain"] * 1e3,
        "null_ms": totals["null"] * 1e3,
        "instrumented_ms": totals["instrumented"] * 1e3,
        "null_vs_plain": totals["null"] / totals["plain"] - 1.0,
        "instrumented_vs_null":
            totals["instrumented"] / totals["null"] - 1.0,
    }
    _flush_results()
    assert totals["instrumented"] <= totals["null"] * (1.0 + MAX_OVERHEAD), (
        f"aggregate instrumented-vs-noop overhead "
        f"{totals['instrumented'] / totals['null'] - 1.0:.1%} exceeds "
        f"{MAX_OVERHEAD:.0%} across the headline configs")
    assert totals["null"] <= totals["plain"] * (1.0 + MAX_OVERHEAD), (
        f"aggregate no-op dispatch overhead "
        f"{totals['null'] / totals['plain'] - 1.0:.1%} exceeds "
        f"{MAX_OVERHEAD:.0%} across the headline configs")


def test_obs_results_identical_across_variants():
    """The gate would be meaningless if the variants diverged."""
    network = build("vgg16", 64)
    policy = TransferPolicy.vdnn_all()
    algos = algo_config(network, "m")
    plain = simulate_vdnn(network, PAPER_SYSTEM, policy, algos)
    null = simulate_vdnn(network, PAPER_SYSTEM, policy, algos,
                         obs=NullInstrumentation())
    full = simulate_vdnn(network, PAPER_SYSTEM, policy, algos,
                         obs=Instrumentation())
    assert plain == null == full


def main() -> int:
    for name, batch, factory, algo in CONFIGS:
        section, _best = measure_config(name, batch, factory, algo)
        print(f"{name}:{batch}:{algo}: " + "  ".join(
            f"{k}={v:,.4g}" for k, v in section.items()))
    _flush_results()
    print(f"wrote {RESULTS_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
