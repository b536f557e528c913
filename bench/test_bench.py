"""The benchmark's own tests, on the quick profile: ``pytest bench -q``."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def quick(tmp_path_factory):
    """One untraced and one traced repetition of every workload."""
    out = tmp_path_factory.mktemp("results")
    proc = _bench("--quick", "--reps", "1", "--trace", "--json", str(out))
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    return proc, json.loads((out / "results.json").read_text()), out


def test_every_metric_is_emitted_with_its_unit(quick):
    proc, results, _out = quick
    benchmark = run.load_benchmark()
    assert set(results["workloads"]) == \
        {w["name"] for w in benchmark["workloads"]}
    for summary in results["workloads"].values():
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            emitted = run.contract_metrics(summary, benchmark, trace)
            assert {name: m["unit"] for name, m in emitted.items()} == \
                {m["name"]: m["unit"] for m in benchmark[kind]}
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1


def test_names_are_plain(quick):
    _proc, results, _out = quick
    benchmark = run.load_benchmark()
    names = [w["name"] for w in benchmark["workloads"]]
    names += [m["name"] for m in benchmark["end_to_end"]
              + benchmark["per_layer"]]
    for summary in results["workloads"].values():
        names += list(summary["end_to_end"]) + list(summary["per_layer"])
    assert all(NAME.fullmatch(name) for name in names)


def test_no_item_fails(quick):
    _proc, results, _out = quick
    for name, summary in results["workloads"].items():
        assert summary["end_to_end"]["failed_frac"]["median"] == 0, name
        assert summary["failed"] == 0 and not summary["problems"], name


def test_tracing_is_neutral(quick):
    _proc, results, out = quick
    for name, summary in results["workloads"].items():
        plain, traced = summary["reps"][0], summary["traced"]
        assert traced["digest"] == plain["digest"], name
        assert traced["modeled"] == plain["modeled"], name
        assert summary["per_layer"]["unattributed_pct"] < 10, name
        assert (out / f"{name}.trace.json").is_file()


def test_compare_against_itself_finds_nothing(quick):
    _proc, _results, out = quick
    proc = _bench("--compare", str(out / "results.json"),
                  str(out / "results.json"))
    assert proc.returncode == 0, proc.stdout
    assert "REGRESSION" not in proc.stdout and "CHANGED" not in proc.stdout


def test_single_workload_form_prints_the_contract_line():
    proc = _bench("--workload", "static-zoo", "--seed", "3", "--seconds",
                  "1", "--trace", "0", "--quick")
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line["metrics"]) == \
        {m["name"] for m in run.load_benchmark()["end_to_end"]}
    # Ten alexnet grid points per repetition, at least MIN_REPS of them.
    assert line["attempted"] % 10 == 0
    assert line["attempted"] >= run.MIN_REPS * 10


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "tenancy", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
