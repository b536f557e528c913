"""AST lint rules over synthetic snippets, plus the repo-clean gate."""

import ast
from pathlib import Path

import pytest

import repro
from repro.analysis.lint import lint_file, lint_paths


def lint_snippet(tmp_path, source, rel="repro/sim/snippet.py"):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(source)
    return lint_file(path, tmp_path)


def rules(findings):
    return sorted(d.rule for d in findings)


class TestFingerprintRules:
    REL = "repro/perf/fingerprint.py"

    def test_dumps_without_sort_keys_fires_lint201(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "import json\nx = json.dumps({})\n", rel=self.REL)
        assert rules(findings) == ["LINT201"]

    def test_dumps_with_sort_keys_false_fires_lint201(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "import json\nx = json.dumps({}, sort_keys=False)\n",
            rel=self.REL)
        assert rules(findings) == ["LINT201"]

    def test_canonical_dumps_is_clean(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "import json\nx = json.dumps({}, sort_keys=True)\n",
            rel=self.REL)
        assert findings == []

    def test_unsorted_dumps_outside_fingerprint_paths_is_allowed(
            self, tmp_path):
        findings = lint_snippet(
            tmp_path, "import json\nx = json.dumps({})\n",
            rel="repro/reporting/render.py")
        assert findings == []

    def test_default_str_fires_lint202_anywhere(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "import json\nx = json.dumps({}, default=str)\n",
            rel="repro/reporting/render.py")
        assert rules(findings) == ["LINT202"]


class TestPurityRules:
    def test_wall_clock_in_pure_module_fires_lint203(self, tmp_path):
        findings = lint_snippet(tmp_path, "import time\nt = time.time()\n")
        assert rules(findings) == ["LINT203"]

    def test_module_level_random_fires_lint203(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "import random\nr = random.random()\n")
        assert rules(findings) == ["LINT203"]

    def test_unseeded_random_instance_fires_lint203(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "import random\nrng = random.Random()\n")
        assert rules(findings) == ["LINT203"]

    def test_seeded_random_instance_is_allowed(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "import random\nrng = random.Random(1234)\n")
        assert findings == []

    def test_wall_clock_outside_pure_packages_is_allowed(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "import time\nt = time.time()\n",
            rel="repro/profiler/wall.py")
        assert findings == []


class TestDeferredImportRule:
    def test_module_scope_numpy_fires_lint209(self, tmp_path):
        for source in ("import numpy as np\n", "from numpy import zeros\n",
                       "import numpy.linalg\n"):
            findings = lint_snippet(tmp_path, source,
                                    rel="repro/reporting/plot.py")
            assert rules(findings) == ["LINT209"], source

    def test_module_scope_process_pool_fires_lint209(self, tmp_path):
        for source in (
                "from concurrent.futures import ProcessPoolExecutor\n",
                "import concurrent.futures\n",
                "from concurrent import futures\n",
                "try:\n    import concurrent.futures.process\n"
                "except ImportError:\n    pass\n"):
            findings = lint_snippet(tmp_path, source,
                                    rel="repro/perf/pool.py")
            assert rules(findings) == ["LINT209"], source

    def test_function_local_imports_are_allowed(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "def train():\n    import numpy as np\n    return np\n\n"
            "def fan_out(jobs):\n"
            "    if jobs > 1:\n"
            "        from concurrent.futures import ProcessPoolExecutor\n"
            "        return ProcessPoolExecutor\n",
            rel="repro/cli.py")
        assert findings == []

    def test_numerics_is_exempt_for_numpy_only(self, tmp_path):
        assert lint_snippet(tmp_path, "import numpy as np\n",
                            rel="repro/numerics/ops.py") == []
        findings = lint_snippet(
            tmp_path, "from concurrent.futures import ThreadPoolExecutor\n",
            rel="repro/numerics/ops.py")
        assert rules(findings) == ["LINT209"]

    def test_relative_import_named_numpy_is_not_numpy(self, tmp_path):
        findings = lint_snippet(tmp_path, "from . import numpy\n")
        assert findings == []


class TestQuantityComparisonRule:
    def test_float_eq_on_quantity_fires_lint204(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "def f(a, b):\n    return a.latency_seconds == b\n")
        assert rules(findings) == ["LINT204"]

    def test_neq_on_bytes_fires_lint204(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "def f(a, b):\n    return a.live_bytes != b.nbytes\n")
        assert rules(findings) == ["LINT204"]

    def test_zero_sentinel_comparison_is_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "def f(a):\n"
            "    return a.stall_seconds == 0 or a.total_seconds == 0.0\n")
        assert findings == []

    def test_none_sentinel_comparison_is_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "def f(a):\n    return a.finish_seconds != None\n")
        assert findings == []

    def test_non_quantity_names_are_not_flagged(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "def f(a, b):\n    return a.name == b.name\n")
        assert findings == []

    def test_named_zero_constant_is_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "NO_STALL = 0.0\n"
            "def f(a):\n    return a.stall_seconds == NO_STALL\n")
        assert findings == []

    def test_float_inf_sentinel_is_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "def f(a):\n"
            "    return a.deadline_seconds == float('inf') or "
            "a.budget_bytes != -float('inf')\n")
        assert findings == []

    def test_math_inf_sentinel_is_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "import math\n"
            "def f(a):\n    return a.deadline_seconds != math.inf\n")
        assert findings == []

    def test_nonzero_named_constant_still_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "LIMIT = 5.0\n"
            "def f(a):\n    return a.stall_seconds == LIMIT\n")
        assert rules(findings) == ["LINT204"]


class TestHotRegionRule:
    def test_list_literal_in_hot_loop_fires_lint205(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "def f(items):\n"
            "    out = None\n"
            "    for item in items:  # repro: hot\n"
            "        out = [item]\n"
            "    return out\n")
        assert rules(findings) == ["LINT205"]

    def test_fstring_and_sorted_in_hot_function_fire(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "# repro: hot\n"
            "def f(self, step):\n"
            "    label = f'go {step}'\n"
            "    return sorted(label)\n")
        assert rules(findings) == ["LINT205", "LINT205"]

    def test_unmarked_loop_is_not_checked(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "def f(items):\n"
            "    return [i for i in items]\n")
        assert findings == []

    def test_cold_guard_branch_is_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "def f(self, items):  # repro: hot\n"
            "    for item in items:\n"
            "        if self.trace is not None:\n"
            "            self.trace.add([item])\n"
            "        if self.obs:\n"
            "            self.obs.emit(f'saw {item}')\n")
        assert findings == []

    def test_raise_path_is_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "def f(self, items):  # repro: hot\n"
            "    for item in items:\n"
            "        if item < 0:\n"
            "            raise ValueError(f'negative {item}')\n")
        assert findings == []


class TestStructureRules:
    def test_network_annotation_in_plan_class_fires_lint206(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "class ShadowPlan:\n"
            "    network: Network\n"
            "    label: str\n")
        assert rules(findings) == ["LINT206"]

    def test_self_network_store_in_record_class_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "class CacheRecord:\n"
            "    def __init__(self, network):\n"
            "        self.net = network\n")
        assert rules(findings) == ["LINT206"]

    def test_heavy_ref_in_non_struct_class_is_allowed(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "class Simulation:\n"
            "    def __init__(self, network):\n"
            "        self.network = network\n")
        assert findings == []

    def test_plan_class_mutating_itself_outside_init_fires(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "class CompiledPlan:\n"
            "    def __init__(self):\n"
            "        self.forward = ()\n"
            "    def rewire(self):\n"
            "        self.forward = None\n")
        assert rules(findings) == ["LINT208"]

    def test_external_plan_field_store_fires_lint208(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "def corrupt(step):\n"
            "    step.dead_releases = ()\n")
        assert rules(findings) == ["LINT208"]

    @pytest.mark.parametrize("store", [
        "plan.forward[0].ws_bytes = 0", "step.ws_aligned = 0",
        "step.dram_nbytes = 0", "plan.forward_at = {}"])
    def test_overlay_field_store_fires_lint208(self, tmp_path, store):
        # An overlay shares unchanged steps with its base plan, so a
        # store to an algorithm-derived field reaches sibling plans.
        findings = lint_snippet(
            tmp_path, f"def downgrade(plan, step):\n    {store}\n")
        assert rules(findings) == ["LINT208"]

    def test_plan_home_module_is_exempt(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "def build(step):\n"
            "    step.dead_releases = ()\n",
            rel="repro/core/plan.py")
        assert findings == []

    def test_network_store_in_liveness_analysis_fires_lint206(
            self, tmp_path):
        # The liveness table is weak-keyed by network: a back-reference
        # in the value would keep every analysed network alive.
        findings = lint_snippet(
            tmp_path,
            "class LivenessAnalysis:\n"
            "    def __init__(self, network):\n"
            "        self.network = network\n")
        assert rules(findings) == ["LINT206"]

    def test_liveness_analysis_of_derived_facts_is_allowed(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "class LivenessAnalysis:\n"
            "    def __init__(self, network):\n"
            "        self.storages = {}\n"
            "        self._analyze(network)\n")
        assert findings == []

    @pytest.mark.parametrize("store", [
        "node.storage_index = 0", "node.weight_tensor_bytes = 0",
        "node.is_feature_extraction = False", "node.output_spec = None",
        "info.forward_release_at = 0", "info.backward_users = []",
        "info.gradient_writers = []"])
    def test_shared_graph_field_store_fires_lint208(self, tmp_path, store):
        # One zoo network (and its liveness) serves every caller of
        # zoo.build: a store to a node or storage fact reaches them all.
        findings = lint_snippet(
            tmp_path, f"def rewire(node, info):\n    {store}\n")
        assert rules(findings) == ["LINT208"]

    @pytest.mark.parametrize("store, rel", [
        ("node.storage_index = 0", "repro/graph/network.py"),
        ("node.weight_tensor_bytes = 0", "repro/graph/network.py"),
        ("info.backward_users = []", "repro/core/liveness.py"),
    ])
    def test_shared_graph_field_home_is_exempt(self, tmp_path, store, rel):
        findings = lint_snippet(
            tmp_path, f"def build(node, info):\n    {store}\n", rel=rel)
        assert findings == []

    def test_graph_field_home_does_not_exempt_other_families(self,
                                                            tmp_path):
        findings = lint_snippet(
            tmp_path,
            "def build(node, info):\n"
            "    info.gradient_writers = []\n",
            rel="repro/graph/network.py")
        assert rules(findings) == ["LINT208"]


class TestSuppression:
    def test_allow_comment_suppresses_the_rule_on_that_line(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "import time\nt = time.time()  # repro: allow(LINT203)\n")
        assert findings == []

    def test_allow_comment_for_a_different_rule_does_not(self, tmp_path):
        # The stale LINT204 allow itself now draws a LINT207 warning.
        findings = lint_snippet(
            tmp_path,
            "import time\nt = time.time()  # repro: allow(LINT204)\n")
        assert rules(findings) == ["LINT203", "LINT207"]

    def test_unused_allow_fires_lint207(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "x = 1  # repro: allow(LINT203)\n")
        assert rules(findings) == ["LINT207"]
        assert findings[0].severity.value == "warning"

    def test_firing_allow_is_not_stale(self, tmp_path):
        findings = lint_snippet(
            tmp_path,
            "import time\nt = time.time()  # repro: allow(LINT203)\n")
        assert findings == []

    def test_allow_lint207_is_exempt_from_staleness(self, tmp_path):
        findings = lint_snippet(
            tmp_path, "x = 1  # repro: allow(LINT207)\n")
        assert findings == []


class TestStrictMode:
    def test_warning_only_file_passes_default_but_fails_strict(
            self, tmp_path, capsys):
        from repro.analysis.lint import main

        path = tmp_path / "repro" / "sim" / "mod.py"
        path.parent.mkdir(parents=True)
        path.write_text("x = 1  # repro: allow(LINT203)\n")
        assert main([str(tmp_path / "repro")]) == 0
        assert main([str(tmp_path / "repro"), "--strict"]) == 1
        assert "LINT207" in capsys.readouterr().out


class TestRepoGate:
    def test_repo_source_is_lint_clean(self):
        package = Path(repro.__file__).parent
        report = lint_paths([package])
        assert report.ok, report.render_text()

    def test_syntax_error_is_reported_not_raised(self, tmp_path):
        path = tmp_path / "broken.py"
        path.write_text("def broken(:\n")
        findings = lint_file(path, tmp_path)
        assert len(findings) == 1 and "does not parse" in findings[0].message


def _imported_modules(path):
    """Every module a file under ``repro/core`` imports, resolved."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                parent = ["repro", "core"][:3 - node.level]
                module = ".".join(parent + ([module] if module else []))
            for alias in node.names:
                # `from repro.analysis import hb` imports a module too.
                yield (f"{module}.{alias.name}"
                       if module in ("repro", "repro.analysis") else module)


class TestImportDirection:
    """``repro.core`` sits below ``repro.analysis``: it may import only
    the analysis leaves, which import nothing from the package."""

    LEAVES = {"repro.analysis.trace", "repro.analysis.diagnostics"}

    def test_core_imports_only_analysis_leaves(self):
        core = Path(repro.__file__).parent / "core"
        imports = {(path.name, module)
                   for path in sorted(core.glob("*.py"))
                   for module in _imported_modules(path)}
        # The scan sees the imports it is meant to allow.
        assert ("executor.py", "repro.analysis.trace") in imports
        assert ("interpret.py", "repro.analysis.diagnostics") in imports
        offenders = sorted(
            (name, module) for name, module in imports
            if (module == "repro.analysis"
                or module.startswith("repro.analysis."))
            and module not in self.LEAVES)
        assert offenders == []
