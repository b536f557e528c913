"""Golden-fixture regression tests for the metrics exports.

Each fixture under ``tests/golden/`` is the byte-exact metrics export
that one ``repro evaluate`` or ``repro schedule`` invocation writes
through ``--out`` — same (config, seed) must produce the same bytes
forever.  A diff here means either the simulation or the
exporter changed behaviour; if the change is intentional, regenerate
with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_obs_golden.py

and review the fixture diff like any other code change.
"""

import os

import pytest

from repro.cli import main

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")

#: fixture file -> ``repro`` argv producing it (minus --out).
FIXTURES = {
    "vgg16_all_m.prom": [
        "evaluate", "vgg16", "--batch", "64", "--policy", "all",
        "--algo", "m", "--metrics", "prom",
    ],
    "vgg16_all_m.json": [
        "evaluate", "vgg16", "--batch", "64", "--policy", "all",
        "--algo", "m", "--metrics", "json",
    ],
    "schedule_faulted.prom": [
        "schedule", "--faults", "shrink@8=0.4,evict@3=vgg16#1",
        "--fault-seed", "1", "--metrics", "prom",
    ],
    "schedule_faulted.json": [
        "schedule", "--faults", "shrink@8=0.4,evict@3=vgg16#1",
        "--fault-seed", "1", "--metrics", "json",
    ],
}

_REGEN = os.environ.get("REPRO_REGEN_GOLDEN", "") not in ("", "0")


def _generate(argv, path):
    code = main(argv + ["--out", path])
    assert code == 0


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_golden_fixture(fixture, tmp_path):
    golden_path = os.path.join(GOLDEN_DIR, fixture)
    if _REGEN:
        os.makedirs(GOLDEN_DIR, exist_ok=True)
        _generate(FIXTURES[fixture], golden_path)

    fresh_path = str(tmp_path / fixture)
    _generate(FIXTURES[fixture], fresh_path)

    with open(golden_path, "rb") as handle:
        golden = handle.read()
    with open(fresh_path, "rb") as handle:
        fresh = handle.read()
    assert fresh == golden, (
        f"{fixture} drifted from its golden fixture; if intentional, "
        f"regenerate with REPRO_REGEN_GOLDEN=1 (see module docstring)")


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_golden_generation_is_deterministic(fixture, tmp_path):
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    _generate(FIXTURES[fixture], a)
    _generate(FIXTURES[fixture], b)
    with open(a, "rb") as ha, open(b, "rb") as hb:
        assert ha.read() == hb.read()
