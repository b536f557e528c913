"""The cold-import contract: a command imports only what it runs.

``import repro`` loads no subpackage; numpy loads only with
``repro.numerics`` and a process pool only for ``jobs > 1``.  Library
packages resolve their names on first use, while an entry package
imports at once everything its entry point calls, so a pass imports no
module on the clock.  Each check runs in a fresh interpreter, because
this test session has long since imported everything.

Every test whose name lacks ``with_numpy`` runs on the standard library
alone (CI runs them where numpy is not installed).
"""

import ast
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


def lazy_packages() -> list:
    """Every package whose ``__init__`` assigns an ``_EXPORTS`` table."""
    root = Path(repro.__file__).parent
    found = []
    for init in sorted(root.rglob("__init__.py")):
        tree = ast.parse(init.read_text())
        if any(isinstance(node, ast.Assign)
               and any(getattr(target, "id", None) == "_EXPORTS"
                       for target in node.targets)
               for node in tree.body):
            parts = init.parent.relative_to(root.parent).parts
            found.append(".".join(parts))
    return found


def test_every_exported_name_resolves():
    packages = lazy_packages()
    assert {"repro", "repro.core", "repro.hw", "repro.zoo",
            "repro.perf"} <= set(packages)
    out = run_fresh(f"""
        import importlib
        count = 0
        for package in {packages!r}:
            module = importlib.import_module(package)
            for name in module.__all__:
                # Needs numpy: test_numerics_resolves_lazily_with_numpy.
                if package == "repro" and name == "numerics":
                    continue
                getattr(module, name)
                count += 1
            assert set(module.__all__) <= set(dir(module)), package
        namespace = {{}}
        exec("from repro.core import *", namespace)
        assert "evaluate" in namespace and "TransferPolicy" in namespace
        print(count)
    """)
    assert int(out) > 250


def test_perf_functions_outlive_their_submodules():
    # fingerprint and sweep each name a function and its submodule;
    # importing the submodule must not rebind the package's name.
    out = run_fresh("""
        import repro.perf.fingerprint, repro.perf.sweep
        from repro import perf
        print(perf.fingerprint.__module__, perf.sweep.__module__)
    """)
    assert out.split() == ["repro.perf.fingerprint", "repro.perf.sweep"]


def test_serving_and_verify_skip_idle_subsystems():
    out = run_fresh("""
        import sys
        import repro.serve
        idle = ("repro.core.executor", "repro.core.walk",
                "repro.analysis.trace")
        print([name for name in idle if name in sys.modules])
        from repro.analysis import verify
        print([name for name in sys.modules
               if name == "repro.sched" or name.startswith("repro.sched.")])
    """)
    assert out.split("\n")[:2] == ["[]", "[]"]


#: entry module -> (inputs built after importing it, the one call).  An
#: entry module imports everything its entry point runs, so the call
#: loads no further ``repro`` module: none lands on a pass's clock.
ENTRY_CALLS = {
    "verify_zoo dynamic": (
        "repro.analysis.verify", "",
        "entry.verify_zoo(['alexnet'], batch=32, jobs=1)"),
    "verify_zoo static": (
        "repro.analysis.verify", "",
        "entry.verify_zoo(['alexnet'], batch=32, mode='static')"),
    "compare_policies": (
        "repro.core.api",
        "from repro import zoo\n"
        "network = zoo.build('alexnet', 32)",
        "entry.compare_policies(network)"),
    "simulate_serving": (
        "repro.serve",
        "config = entry.ServeConfig(\n"
        "    models=tuple(entry.parse_models('vgg16:2,alexnet')),\n"
        "    arrivals=entry.ArrivalSpec.parse('poisson:rate=50,seed=3'),\n"
        "    requests=50, budget_bytes=1 << 30)",
        "entry.simulate_serving(config).records"),
    "schedule_jobs": (
        "repro.sched",
        "jobs = [entry.Job(name=f'j{i}', network='alexnet', batch_size=32,\n"
        "                  iterations=5) for i in range(2)]",
        "entry.schedule_jobs(jobs).records"),
    "schedule_fleet": (
        "repro.cluster",
        "jobs = [entry.ClusterJob(name='g', network='alexnet',\n"
        "                         batch_size=32, iterations=5, num_gpus=2)]",
        "entry.schedule_fleet(jobs, num_gpus=2).records"),
}


@pytest.mark.parametrize("case", sorted(ENTRY_CALLS))
def test_entry_call_imports_nothing(case):
    module, inputs, call = ENTRY_CALLS[case]
    out = run_fresh(f"""
        import importlib
        import sys

        def loaded():
            return {{name for name in sys.modules
                    if name == "repro" or name.startswith("repro.")}}

        entry = importlib.import_module({module!r})
""" + textwrap.indent(inputs, " " * 8) + f"""
        before = loaded()
        assert {call}
        print(sorted(loaded() - before))
    """)
    assert out.strip() == "[]"


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
