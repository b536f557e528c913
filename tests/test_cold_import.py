"""The cold-import contract: a command imports only what it runs.

``import repro`` loads no subpackage; numpy loads only with
``repro.numerics`` and a process pool only for ``jobs > 1``.  Each check
runs in a fresh interpreter, because this test session has long since
imported everything.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])


def run_fresh(source: str, block_numpy: bool = False) -> str:
    """Run ``source`` in a new interpreter; return its standard output.

    ``block_numpy`` makes any ``import numpy`` there raise ImportError.
    """
    prologue = 'import sys\nsys.modules["numpy"] = None\n' \
        if block_numpy else ""
    proc = subprocess.run(
        [sys.executable, "-c", prologue + textwrap.dedent(source)],
        capture_output=True, text=True, timeout=300,
        env={"PYTHONPATH": SRC, "PYTHONHASHSEED": "0"})
    assert proc.returncode == 0, proc.stderr[-4000:]
    return proc.stdout


def test_import_repro_loads_no_heavy_module():
    out = run_fresh("""
        import sys
        import repro
        import repro.core, repro.reporting, repro.analysis
        heavy = ("numpy", "concurrent.futures.process",
                 "repro.reporting.figures", "repro.core.api",
                 "repro.numerics")
        print([name for name in heavy if name in sys.modules])
    """)
    assert out.strip() == "[]"


def test_simulation_paths_run_without_numpy():
    out = run_fresh("""
        from repro import zoo
        from repro.analysis import verify_zoo
        from repro.cluster import ClusterJob, schedule_fleet
        from repro.core import evaluate
        from repro.sched import Job, schedule_jobs
        from repro.serve import ArrivalSpec, ServeConfig, parse_models
        from repro.serve import simulate_serving

        assert evaluate(zoo.build("alexnet", 32), policy="dyn").trainable
        for mode in ("dynamic", "static"):
            reports = verify_zoo(["alexnet"], batch=32, jobs=1, mode=mode)
            assert reports and all(report.ok for report in reports), mode
        served = simulate_serving(ServeConfig(
            models=tuple(parse_models("alexnet")),
            arrivals=ArrivalSpec.parse("poisson:rate=50,seed=3"),
            requests=50, budget_bytes=1 << 30))
        assert len(served.records) == 50
        jobs = [Job(name=f"j{i}", network="alexnet", batch_size=32,
                    iterations=5) for i in range(2)]
        assert schedule_jobs(jobs).records
        gang = [ClusterJob(name="g", network="alexnet", batch_size=32,
                           iterations=5, num_gpus=2)]
        assert schedule_fleet(gang, num_gpus=2).records
        print(sys.modules["numpy"],
              "concurrent.futures.process" in sys.modules)
    """, block_numpy=True)
    assert out.split() == ["None", "False"]


def test_every_exported_name_resolves():
    out = run_fresh("""
        import importlib
        count = 0
        for package in ("repro", "repro.core", "repro.reporting",
                        "repro.analysis"):
            module = importlib.import_module(package)
            for name in module.__all__:
                getattr(module, name)
                count += 1
            assert set(module.__all__) <= set(dir(module)), package
        namespace = {}
        exec("from repro.core import *", namespace)
        assert "evaluate" in namespace and "TransferPolicy" in namespace
        print(count)
    """)
    assert int(out) > 100


def test_numerics_resolves_lazily_with_numpy():
    out = run_fresh("""
        import sys
        import repro
        assert "numpy" not in sys.modules
        print(repro.numerics.TrainingRuntime.__name__,
              "numpy" in sys.modules)
    """)
    assert out.split() == ["TrainingRuntime", "True"]


def test_unknown_name_is_an_attribute_error():
    import repro.core

    # hasattr() and `from package import submodule` rely on this type.
    with pytest.raises(AttributeError, match="no attribute 'evaluat'"):
        repro.core.evaluat
