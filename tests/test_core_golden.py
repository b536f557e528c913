"""Golden bit-identity fixtures for the simulator core.

Each fixture under ``tests/golden/`` freezes one headline simulation —
summary statistics, the full usage curve, and a sha256 digest over the
*complete event list* — so a core rewrite is diffed event-for-event
against the pre-rewrite behaviour, not just on summary stats.  The
fixtures were generated by the interpreter-style executor that predates
the compiled-plan overhaul; the overhauled core must reproduce every
byte.

A diff here means the simulation changed behaviour.  If (and only if)
the change is intentional, regenerate with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_core_golden.py

and review the fixture diff like any other code change.
"""

import hashlib
import json
import os

import pytest

from repro.core import AlgoConfig, evaluate, simulate_recompute
from repro.hw import PAPER_SYSTEM
from repro.zoo import build

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: The headline grid: networks x {baseline, vDNN_all(m), vDNN_dyn},
#: plus the compressed-DMA policy, the joint planner and sqrt(L)
#: checkpointing (``recompute`` is not an ``evaluate`` policy, so
#: :func:`_simulate` runs it directly, memory-optimal).  Entries are
#: (network, batch, policy, algo) with an optional fifth element: a GPU
#: memory budget in GiB (joint fixtures run under tight budgets so the
#: ladder actually mixes strategies instead of adopting keep-all).
CONFIGS = {
    "core_alexnet_base": ("alexnet", 64, "base", "m"),
    "core_alexnet_all": ("alexnet", 64, "all", "m"),
    "core_alexnet_dyn": ("alexnet", 64, "dyn", None),
    "core_googlenet_base": ("googlenet", 64, "base", "m"),
    "core_googlenet_all": ("googlenet", 64, "all", "m"),
    "core_googlenet_dyn": ("googlenet", 64, "dyn", None),
    "core_vgg16_base": ("vgg16", 64, "base", "m"),
    "core_vgg16_all": ("vgg16", 64, "all", "m"),
    "core_vgg16_dyn": ("vgg16", 64, "dyn", None),
    "core_alexnet_comp": ("alexnet", 64, "comp", "m"),
    "core_googlenet_comp": ("googlenet", 64, "comp", "p"),
    "core_vgg16_comp": ("vgg16", 64, "comp", "m"),
    "core_alexnet_joint": ("alexnet", 64, "joint", None),
    "core_googlenet_joint": ("googlenet", 128, "joint", None, 2.0),
    "core_resnet50_joint": ("resnet50", 32, "joint", None, 1.2),
    "core_alexnet_recompute": ("alexnet", 64, "recompute", "m"),
    "core_googlenet_recompute": ("googlenet", 64, "recompute", "m"),
    "core_vgg16_recompute": ("vgg16", 64, "recompute", "m"),
}

_REGEN = os.environ.get("REPRO_REGEN_GOLDEN", "") not in ("", "0")


def event_lines(timeline):
    """Canonical one-line-per-event rendering of a timeline.

    ``repr`` on the floats captures every bit of the double, so two
    timelines produce the same lines iff they are bit-identical.  Works
    on any object exposing ``events`` of TimelineEvent-shaped records
    (the live Timeline and the benchmark's vendored legacy one).
    """
    return [
        f"{e.stream}|{e.kind.value}|{e.label}|{e.start!r}|{e.end!r}"
        f"|{e.nbytes}|{e.layer_index}"
        for e in timeline.events
    ]


def result_digest(result):
    """sha256 over everything an IterationResult *is*.

    Summary fields, the usage step function, and the full event list,
    all floats rendered with ``repr``.
    """
    lines = [
        f"network={result.network_name}",
        f"policy={result.policy_label}",
        f"algo={result.algo_label}",
        f"trainable={result.trainable}",
        f"failure={result.failure}",
        f"managed_max_bytes={result.managed_max_bytes}",
        f"managed_avg_bytes={result.managed_avg_bytes!r}",
        f"external_bytes={result.external_bytes}",
        f"persistent_bytes={result.persistent_bytes}",
        f"total_time={result.total_time!r}",
        f"feature_extraction_time={result.feature_extraction_time!r}",
        f"offload_bytes={result.offload_bytes}",
        f"prefetch_bytes={result.prefetch_bytes}",
        f"pinned_peak_bytes={result.pinned_peak_bytes}",
        f"compute_stall_seconds={result.compute_stall_seconds!r}",
        f"offloaded_layers={result.offloaded_layers}",
        "usage=" + ";".join(
            f"{t!r}:{b}" for t, b in result.usage.curve()),
    ]
    lines.extend(event_lines(result.timeline))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _summarize(result):
    """The fixture payload: digest plus human-diffable summary stats."""
    return {
        "digest": result_digest(result),
        "events": len(result.timeline.events),
        "policy": result.policy_label,
        "algo": result.algo_label,
        "trainable": result.trainable,
        "managed_max_bytes": result.managed_max_bytes,
        "offload_bytes": result.offload_bytes,
        "prefetch_bytes": result.prefetch_bytes,
        "total_time": repr(result.total_time),
        "compute_stall_seconds": repr(result.compute_stall_seconds),
    }


def _simulate(config):
    name, batch, policy, algo = config[:4]
    system = PAPER_SYSTEM
    if len(config) > 4:
        system = system.with_gpu_memory(int(config[4] * (1 << 30)))
    network = build(name, batch)
    if policy == "recompute":
        return simulate_recompute(network, system,
                                  AlgoConfig.memory_optimal(network))
    kwargs = {} if algo is None else {"algo": algo}
    return evaluate(network, system, policy=policy,
                    use_cache=False, **kwargs)


@pytest.mark.parametrize("fixture", sorted(CONFIGS))
def test_core_golden(fixture):
    golden_path = os.path.join(GOLDEN_DIR, fixture + ".json")
    payload = _summarize(_simulate(CONFIGS[fixture]))

    if _REGEN:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(golden_path, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")

    with open(golden_path) as handle:
        golden = json.load(handle)
    assert payload == golden, (
        f"{fixture} drifted from its golden fixture (event-for-event "
        f"bit identity); if intentional, regenerate with "
        f"REPRO_REGEN_GOLDEN=1 (see module docstring)")


def test_digest_is_deterministic():
    """Two fresh simulations of one config must digest identically."""
    config = CONFIGS["core_googlenet_all"]
    assert result_digest(_simulate(config)) == \
        result_digest(_simulate(config))
