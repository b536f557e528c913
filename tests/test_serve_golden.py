"""Golden fixtures for the serving simulator's overload ladder.

Two deterministic scenarios, each pinned by a sha256 over every
per-request record, the ``window_shrinks`` and ``cold_starts`` counts
(``serve_overload.json``) and the full Prometheus export of its metrics
(``serve_overload.prom``):

* ``diurnal`` — the day-night shape of the ``serve-diurnal`` benchmark
  (four models in 1 GiB under ``auto`` residency).  vgg16 streams from
  a window already at its largest-layer floor, so ladder rung 1 never
  changes a plan.
* ``burst`` — a 20x flash crowd over three layered models with PCIe
  jitter, transient DMA failures, a budget shrink and a forced
  eviction.  Here rung 1 really shrinks windows.

A diff here means serving changed behaviour.  If the change is
intentional, regenerate with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_serve_golden.py

and review the fixture diff like any other code change.
"""

import hashlib
import json
import os

from repro.faults import FaultSpec
from repro.hw import PAPER_SYSTEM
from repro.obs import prometheus_text
from repro.serve import ArrivalSpec, ServeConfig, parse_models, \
    simulate_serving

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
JSON_PATH = os.path.join(GOLDEN_DIR, "serve_overload.json")
PROM_PATH = os.path.join(GOLDEN_DIR, "serve_overload.prom")

_REGEN = os.environ.get("REPRO_REGEN_GOLDEN", "") not in ("", "0")

GIB = 1 << 30

#: scenario name -> the ServeConfig it runs (on the paper system).
SCENARIOS = {
    "diurnal": ServeConfig(
        models=tuple(parse_models("vgg16:2,googlenet:1,alexnet,resnet50")),
        arrivals=ArrivalSpec.parse("diurnal:rate=40,period=20,seed=0"),
        requests=2000,
        budget_bytes=1 * GIB,
    ),
    "burst": ServeConfig(
        models=tuple(parse_models("vgg16:2,googlenet:1,alexnet")),
        arrivals=ArrivalSpec.parse(
            "burst:rate=50,at=0.2,dur=2,x=20,seed=2"),
        requests=300,
        budget_bytes=1 * GIB,
        residency="layered",
        faults=FaultSpec.parse(
            "jitter=0.1,dma=0.05,shrink@1.0=0.5,evict@2.0=alexnet"),
        fault_seed=3,
    ),
}


def records_sha256(records) -> str:
    """sha256 over every field of every request record, in rid order."""
    digest = hashlib.sha256()
    for r in records:
        digest.update(repr((r.rid, r.model, r.priority, r.arrival, r.outcome,
                            r.start, r.finish, r.cold_start)).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def _render():
    summary = {}
    prom = []
    for name in sorted(SCENARIOS):
        config = SCENARIOS[name]
        result = simulate_serving(config, system=PAPER_SYSTEM)
        summary[name] = {
            "requests": config.requests,
            "records_sha256": records_sha256(result.records),
            "window_shrinks": result.window_shrinks,
            "cold_starts": result.cold_starts,
        }
        prom.append(f"# scenario: {name}\n")
        prom.append(prometheus_text(result.obs.flush().registry))
    return json.dumps(summary, indent=1, sort_keys=True) + "\n", "".join(prom)


def test_serve_golden_fixture():
    fresh_json, fresh_prom = _render()
    if _REGEN:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        with open(JSON_PATH, "w") as handle:
            handle.write(fresh_json)
        with open(PROM_PATH, "w") as handle:
            handle.write(fresh_prom)
    with open(JSON_PATH) as handle:
        assert fresh_json == handle.read(), (
            "serving records drifted from serve_overload.json; if "
            "intentional, regenerate with REPRO_REGEN_GOLDEN=1")
    with open(PROM_PATH) as handle:
        assert fresh_prom == handle.read(), (
            "serving metrics drifted from serve_overload.prom; if "
            "intentional, regenerate with REPRO_REGEN_GOLDEN=1")


def test_serve_golden_scenarios_exercise_both_rungs():
    """The burst scenario shrinks windows; the diurnal one never does."""
    with open(JSON_PATH) as handle:
        summary = json.load(handle)
    assert summary["burst"]["window_shrinks"] > 0
    assert summary["diurnal"]["window_shrinks"] == 0
