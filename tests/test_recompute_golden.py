"""Golden facts for gradient checkpointing across segment counts.

``tests/golden/recompute_segments.json`` freezes
:func:`repro.core.simulate_recompute` on three graph shapes — GoogLeNet
(fork/join), ResNet-18 (residual) and the LSTM (recurrent) — at segment
counts 1, 2 and 4 and at the sqrt(L) default.  Each entry records the
peak, the iteration and feature-extraction times, the recompute stall,
the full result digest of ``tests/test_core_golden.py`` and a sha256
over the walk's alloc/free sequence placed in an unbounded best-fit
pool (offset, size and tag of every operation, in order), so a rewrite
of the recompute walk is diffed operation for operation.  If a change is intentional, regenerate with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_recompute_golden.py

and review the fixture diff like any other code change.
"""

import hashlib
import json
import os

from repro.alloc import LiveByteCounter, PoolAllocator
from repro.core import AlgoConfig, simulate_recompute
from repro.hw import PAPER_SYSTEM
from repro.zoo import build

from test_core_golden import result_digest

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "recompute_segments.json")

_REGEN = os.environ.get("REPRO_REGEN_GOLDEN", "") not in ("", "0")

#: (network, batch) per graph shape.
NETWORKS = (("googlenet", 32), ("resnet18", 32), ("lstm", 32))
#: Segment counts; None is the sqrt(L) default.
SEGMENTS = (1, 2, 4, None)


class _RecordingCounter(LiveByteCounter):
    """The walk's live-byte counter, logging every alloc and free."""

    def __init__(self):
        super().__init__()
        self.ops = []

    def alloc(self, nbytes, tag=""):
        allocation = super().alloc(nbytes, tag)
        self.ops.append(("A", allocation))
        return allocation

    def free(self, allocation):
        super().free(allocation)
        self.ops.append(("F", allocation))


def _placed_ops(ops):
    """Replay a recorded op sequence through an unbounded best-fit pool.

    Best-fit placement is a deterministic function of the alloc/free
    sequence, so the placed lines pin the walk's operation order exactly
    as a pool inside the walk would.
    """
    pool = PoolAllocator(1 << 50)
    placed = {}
    lines = []
    for op, handle in ops:
        if op == "A":
            allocation = placed[id(handle)] = pool.alloc(handle.requested,
                                                         handle.tag)
            lines.append(f"A|{allocation.offset}|{allocation.size}"
                         f"|{allocation.requested}|{allocation.tag}")
        else:
            allocation = placed.pop(id(handle))
            pool.free(allocation)
            lines.append(f"F|{allocation.offset}|{allocation.size}"
                         f"|{allocation.tag}")
    return lines


def _facts(name, batch, segments, monkeypatch):
    counters = []

    def recording_counter():
        counter = _RecordingCounter()
        counters.append(counter)
        return counter

    monkeypatch.setattr("repro.core.recompute.LiveByteCounter",
                        recording_counter)
    network = build(name, batch)
    result = simulate_recompute(network, PAPER_SYSTEM,
                                AlgoConfig.memory_optimal(network),
                                segments)
    (counter,) = counters
    ops = _placed_ops(counter.ops)
    return {
        "managed_max_bytes": result.managed_max_bytes,
        "total_time": repr(result.total_time),
        "feature_extraction_time": repr(result.feature_extraction_time),
        "compute_stall_seconds": repr(result.compute_stall_seconds),
        "digest": result_digest(result),
        "pool_ops": len(ops),
        "pool_ops_digest": hashlib.sha256(
            "\n".join(ops).encode()).hexdigest(),
    }


def _key(name, batch, segments):
    return f"{name}:{batch}:{'default' if segments is None else segments}"


def test_recompute_segments_golden(monkeypatch):
    payload = {
        _key(name, batch, segments): _facts(name, batch, segments,
                                            monkeypatch)
        for name, batch in NETWORKS for segments in SEGMENTS
    }
    if _REGEN:
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    assert sorted(payload) == sorted(golden)
    for key in sorted(golden):
        assert payload[key] == golden[key], (
            f"{key} drifted from its golden recompute facts; if "
            f"intentional, regenerate with REPRO_REGEN_GOLDEN=1")

