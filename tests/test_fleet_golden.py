"""Golden-fixture regression test for the fleet scheduler.

``tests/golden/fleet_preempt.json`` is the byte-exact outcome of one
deterministic fleet run on 4x ``pcie-switch``: single jobs and gangs of
two and three GPUs, two rounds of priority preemption, and victims that
migrate to other GPUs when they are readmitted.  It pins every record's
fate, the placements, the GPU-seconds, the preemption count and every
timeline lane entry.  If a change to the scheduler is intentional,
regenerate with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_fleet_golden.py

and review the fixture diff like any other code change.
"""

import json
import os

from repro.cluster import ClusterJob, FleetScheduler

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "fleet_preempt.json")

_REGEN = os.environ.get("REPRO_REGEN_GOLDEN", "") not in ("", "0")

GB = 1 << 30


def _jobs():
    """Four low-priority tenants fill one GPU each; a priority-1 pair,
    then a priority-5 triple, preempt them; a short tenant frees a GPU
    mid-run so a queued victim readmits elsewhere (a migration)."""
    lows = [ClusterJob(name=f"low{i}", network="alexnet", batch_size=128,
                       iterations=iterations, submit_time=submit)
            for i, (iterations, submit) in enumerate(
                [(60, 0.0), (15, 0.0), (100, 0.0), (50, 0.3)])]
    return lows + [
        ClusterJob(name="gang", network="alexnet", batch_size=64,
                   iterations=40, priority=1, num_gpus=2, submit_time=0.5),
        ClusterJob(name="solo", network="googlenet", batch_size=8,
                   iterations=40, submit_time=1.0),
        ClusterJob(name="high", network="alexnet", batch_size=64,
                   iterations=15, priority=5, num_gpus=3, submit_time=6.0),
        ClusterJob(name="late", network="resnet18", batch_size=16,
                   iterations=30, priority=2, submit_time=8.0),
    ]


def _render() -> str:
    scheduler = FleetScheduler(topology="pcie-switch", num_gpus=4,
                               budget_bytes=2 * GB)
    scheduler.submit_all(_jobs())
    result = scheduler.run()
    payload = {
        "records": [
            {"name": r.job.name, "state": r.state.value, "rung": r.rung,
             "admit_time": r.admit_time, "finish_time": r.finish_time,
             "evictions": r.evictions,
             "residency": [list(interval) for interval in r.residency]}
            for r in result.records
        ],
        "placements": {name: list(gpus)
                       for name, gpus in result.placements.items()},
        "gpu_seconds": result.gpu_seconds,
        "preemptions": result.preemptions,
        "lanes": [
            [e.stream, e.kind.name, e.label, e.start, e.end, e.nbytes]
            for e in result.timeline.events
        ],
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


def test_fleet_golden_fixture():
    fresh = _render()
    if _REGEN:
        with open(GOLDEN_PATH, "w") as handle:
            handle.write(fresh)
    with open(GOLDEN_PATH) as handle:
        golden = handle.read()
    assert fresh == golden, (
        "fleet_preempt.json drifted from its golden fixture; if "
        "intentional, regenerate with REPRO_REGEN_GOLDEN=1 (see module "
        "docstring)")


def test_fleet_golden_covers_preemption_and_migration():
    payload = json.loads(_render())
    assert payload["preemptions"] > 0
    widths = {len(gpus) for gpus in payload["placements"].values()}
    assert {1, 2, 3} <= widths
    # A migration: some job's RUN intervals span more than one placement.
    placements = {}
    for stream, kind, label, *_rest in payload["lanes"]:
        if kind == "RUN":
            placements.setdefault(stream, set()).add(label.split()[1])
    assert any(len(gpus) > 1 for gpus in placements.values())
