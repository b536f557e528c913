"""AST lint for the repo's reproducibility invariants (pass 3).

Run as ``python -m repro.analysis.lint [paths...]``.  Unlike the trace
passes, this one reads *source*, because the bugs it guards against are
invisible at runtime until a cache silently goes stale:

* **LINT201** — ``json.dumps`` without ``sort_keys=True`` inside a
  fingerprint path.  Fingerprints key the simulation result cache; dict
  ordering must never leak into them.
* **LINT202** — ``json.dumps(..., default=str)`` (or ``repr``): enums
  would serialize by their ``str()``/``repr()`` form instead of their
  stable ``.value``, so renaming a member would silently re-key caches.
* **LINT203** — wall-clock reads (``time.time()`` & friends) or
  unseeded module-level ``random`` calls inside a pure simulation
  module.  Simulated time must come from the simulation; host time or
  hidden RNG state breaks replay and cache hits.  ``random.Random(seed)``
  instances are fine.
* **LINT204** — ``==`` / ``!=`` between byte/latency quantities.  These
  are accumulated floats; exact comparison is only legitimate against a
  sentinel: a literal ``0``/``0.0``/``None``, a module-level constant
  assigned one of those, or a ``float("inf")``/``math.inf`` bound (all
  exempt).

The dataflow-aware rules look past single expressions:

* **LINT205** — per-iteration allocation (list/set/dict literal,
  comprehension, f-string, ``sorted()``/``list()``/``dict()``/``set()``)
  inside a region marked ``# repro: hot`` (on the ``def``/``for``/
  ``while`` line or the line above).  Branches guarded by cold names
  (``trace``, ``obs``, ``fault``, ``verify``, ``report``, ``debug``)
  and ``raise`` statements are exempt — error paths and observation
  hooks may allocate.
* **LINT206** — a ``Network``/``Timeline`` reference stored in a
  plan/cache-shaped structure (class name ending in ``Plan``/
  ``Record``/``Key``/``Entry``): such structures are cached or keyed,
  and a retained back-reference defeats the WeakKeyDictionary plan
  cache (see :mod:`repro.core.plan`'s "no network reference" contract).
* **LINT207** — a ``# repro: allow(RULE)`` suppression on a line where
  RULE no longer fires.  Stale suppressions hide future regressions.
* **LINT208** — mutation of a :class:`~repro.core.plan.CompiledPlan` /
  ``StorageRecord`` / step field outside its constructor.  Plans are
  shared via a cache keyed by content signature; mutating one poisons
  every holder.  The defining module (``core/plan.py``) is exempt —
  construction happens there.
* **LINT209** — a module-scope ``import numpy`` / ``from numpy ...``
  outside ``repro.numerics``, or a module-scope ``concurrent.futures``
  import anywhere in ``repro``.  ``import repro`` and every simulation
  command must not pay for numpy or a process pool they never use; a
  function-local import (``train-demo``, the ``jobs > 1`` branches) is
  fine.

A finding is suppressed by putting ``# repro: allow(RULE)`` on the
offending line.  Suppressions are visible in the diff; that is the
point (and LINT207 keeps them honest).
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path
from typing import Dict, List, Sequence, Set

from .diagnostics import Diagnostic, Report, render_reports_json

#: Files whose json.dumps calls feed cache fingerprints (LINT201 scope).
FINGERPRINT_PATHS = (
    "perf/fingerprint.py",
    "perf/cache.py",
    "core/cached.py",
)

#: Packages whose modules must be pure functions of their inputs
#: (LINT203 scope).  ``numerics`` (host-side reference math) and
#: ``profiler`` (wall-clock by design) are deliberately out.  ``serve``,
#: ``faults`` and ``cluster`` are in: all draw randomness (arrival
#: processes, fault streams) and all must replay bit-identically from a
#: seed.
PURE_PACKAGES = ("sim", "alloc", "core", "sched", "kernels", "hw",
                 "graph", "perf", "serve", "faults", "cluster")

#: Wall-clock entry points LINT203 rejects in pure modules.
_CLOCK_CALLS = {("time", "time"), ("time", "monotonic"),
                ("time", "perf_counter"), ("time", "process_time"),
                ("datetime", "now"), ("datetime", "utcnow")}

#: Identifier substrings marking a byte/latency quantity (LINT204).
_QUANTITY = re.compile(
    r"(bytes|seconds|latency|bandwidth|duration|throughput)", re.IGNORECASE)

_ALLOW = re.compile(r"#\s*repro:\s*allow\(([A-Z]+\d+)\)")

_HOT_MARK = re.compile(r"#\s*repro:\s*hot\b")

#: Identifier substrings that mark a branch as off the hot path
#: (observation, tracing, fault bookkeeping, verification): LINT205
#: does not fire inside them.
_COLD_GUARDS = ("trace", "obs", "fault", "verify", "report", "debug")

#: Class-name shapes LINT206 treats as cached/keyed structures.
_STRUCT_NAME = re.compile(r"(Plan|Record|Key|Entry)$")
_HEAVY_TYPES = {"Network", "Timeline"}
_HEAVY_NAMES = {"network", "timeline"}

#: The compiled-plan family (LINT208): classes whose fields are frozen
#: after construction by convention (they back a shared content-keyed
#: cache), enforced here because __slots__ classes can't be frozen
#: dataclasses without losing their construction pattern.
_PLAN_CLASSES = {"CompiledPlan", "StorageRecord", "ForwardStep",
                 "BackwardStep", "PersistentAlloc"}

#: Attribute names distinctive enough to identify a plan-family store
#: from the outside (LINT208's dataflow half: `plan.X = ...` far from
#: the class definition).  Deliberately excludes generic names
#: (``index``, ``nbytes``, ``seconds``...) other objects share.
_PLAN_FIELDS = {
    "alloc_rec", "y_tag", "ws_tag", "ws_buf", "offload_candidates",
    "dead_releases", "trace_reads", "trace_writes", "grad_allocs",
    "grad_write_candidates", "releases", "required", "dma_seconds",
    "host_tag", "pre_tag", "demand_tag", "y_buf", "g_buf", "g_tag",
    "w_tag", "dw_tag", "w_buf", "dw_buf", "baseline_breakdown",
    "network_name", "classifier_indices", "ws_bytes", "ws_aligned",
    "dram_nbytes", "forward_at", "input_owners",
}

#: The module allowed to assign plan fields: the constructors live here.
_PLAN_HOME = "core/plan.py"

#: Modules a ``repro`` module may import only inside a function
#: (LINT209), each with the one subpackage exempt from that (or None).
_DEFERRED_IMPORTS = {"numpy": "numerics", "concurrent.futures": None}


def _suppressions(source: str) -> dict:
    """line number -> set of rule ids allowed on that line."""
    allowed: dict = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        for match in _ALLOW.finditer(line):
            allowed.setdefault(lineno, set()).add(match.group(1))
    return allowed


def _hot_marks(source: str) -> Set[int]:
    """Line numbers carrying a ``# repro: hot`` region marker."""
    return {lineno for lineno, line in
            enumerate(source.splitlines(), start=1)
            if _HOT_MARK.search(line)}


def _zero_constants(tree: ast.Module) -> Set[str]:
    """Module-level names assigned a literal 0 / 0.0 / None."""
    names: Set[str] = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and _is_zero_or_none(stmt.value):
            names.update(t.id for t in stmt.targets
                         if isinstance(t, ast.Name))
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None \
                and _is_zero_or_none(stmt.value) \
                and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


class _Linter(ast.NodeVisitor):
    def __init__(self, path: Path, rel: str, source: str,
                 tree: ast.Module):
        self.path = path
        self.rel = rel
        self.allowed = _suppressions(source)
        self.used: Dict[int, Set[str]] = {}
        self.hot_lines = _hot_marks(source)
        self.zero_names = _zero_constants(tree)
        self.in_fingerprint_path = any(rel.endswith(p)
                                       for p in FINGERPRINT_PATHS)
        self.in_plan_home = rel.endswith(_PLAN_HOME)
        parts = Path(rel).parts
        if "repro" in parts:
            # Anchor on the package component so out-of-tree checkouts
            # and absolute paths scope identically.
            package = parts[len(parts) - 1 - parts[::-1].index("repro") + 1:]
        else:
            package = parts
        self.pure = len(package) >= 2 and package[0] in PURE_PACKAGES
        self.deferred = () if "repro" not in parts else tuple(
            name for name, home in _DEFERRED_IMPORTS.items()
            if package[:1] != (home,))
        self.diagnostics: List[Diagnostic] = []
        self._hot_depth = 0
        self._cold_depth = 0
        self._class_stack: List[str] = []
        self._func_stack: List[str] = []

    def report(self, rule: str, node: ast.AST, message: str) -> None:
        lineno = getattr(node, "lineno", 0)
        if rule in self.allowed.get(lineno, set()):
            self.used.setdefault(lineno, set()).add(rule)
            return
        self.diagnostics.append(Diagnostic.make(
            rule, message, subject=self.rel,
            location=f"{self.rel}:{lineno}"))

    # ------------------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            self._check_module_call(node, func.value.id, func.attr)
        if isinstance(func, ast.Name) \
                and func.id in ("sorted", "list", "dict", "set"):
            self._hot_alloc(node, f"{func.id}() call")
        self.generic_visit(node)

    def _check_module_call(self, node: ast.Call, module: str,
                           name: str) -> None:
        if module == "json" and name == "dumps":
            self._check_dumps(node)
        if not self.pure:
            return
        if (module, name) in _CLOCK_CALLS:
            self.report(
                "LINT203", node,
                f"wall-clock read {module}.{name}() in a pure simulation "
                f"module; simulated time must come from the simulation")
        elif module == "random" and name != "Random":
            self.report(
                "LINT203", node,
                f"module-level random.{name}() in a pure simulation "
                f"module; use a seeded random.Random instance")
        elif module == "random" and name == "Random" and not node.args \
                and not node.keywords:
            self.report(
                "LINT203", node,
                "random.Random() without a seed in a pure simulation "
                "module; pass an explicit seed")

    def _check_dumps(self, node: ast.Call) -> None:
        keywords = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        if self.in_fingerprint_path:
            sort_keys = keywords.get("sort_keys")
            if not (isinstance(sort_keys, ast.Constant)
                    and sort_keys.value is True):
                self.report(
                    "LINT201", node,
                    "json.dumps in a fingerprint path must pass "
                    "sort_keys=True (cache keys must be canonical)")
        default = keywords.get("default")
        if isinstance(default, ast.Name) and default.id in ("str", "repr"):
            self.report(
                "LINT202", node,
                f"json.dumps(default={default.id}) serializes enums by "
                f"{default.id}(); serialize by .value instead")

    # -- deferred imports (LINT209) ------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        self._check_deferred(node, [alias.name for alias in node.names])

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if not node.level:
            self._check_deferred(node, [f"{node.module}.{alias.name}"
                                        for alias in node.names])

    def _check_deferred(self, node: ast.AST, names: List[str]) -> None:
        if self._func_stack:
            return
        for heavy in self.deferred:
            if any(name == heavy or name.startswith(heavy + ".")
                   for name in names):
                self.report(
                    "LINT209", node,
                    f"module-scope import of {heavy}; import it inside "
                    f"the function that needs it, so loading this module "
                    f"does not load {heavy}")

    # ------------------------------------------------------------------
    def visit_Compare(self, node: ast.Compare) -> None:
        operands = [node.left] + list(node.comparators)
        for op, left, right in zip(node.ops, operands, operands[1:]):
            if isinstance(op, (ast.Eq, ast.NotEq)):
                self._check_quantity_eq(node, left, right)
        self.generic_visit(node)

    def _check_quantity_eq(self, node: ast.Compare, left: ast.AST,
                           right: ast.AST) -> None:
        if self._is_sentinel(left) or self._is_sentinel(right):
            return
        for side in (left, right):
            name = _identifier(side)
            if name and _QUANTITY.search(name):
                self.report(
                    "LINT204", node,
                    f"exact ==/!= on quantity {name!r}; compare with a "
                    f"tolerance (accumulated floats are not exact)")
                return

    def _is_sentinel(self, node: ast.AST) -> bool:
        """Literal/named zero, None, or an infinity bound."""
        if isinstance(node, ast.UnaryOp) \
                and isinstance(node.op, ast.USub):
            return self._is_sentinel(node.operand)
        if _is_zero_or_none(node):
            return True
        if isinstance(node, ast.Name) and node.id in self.zero_names:
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "float" and len(node.args) == 1 \
                and isinstance(node.args[0], ast.Constant) \
                and str(node.args[0].value).lstrip("+-").lower() == "inf":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "inf" \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "math":
            return True
        return False

    # -- hot regions (LINT205) -----------------------------------------
    def _is_hot_marked(self, node: ast.AST) -> bool:
        lineno = getattr(node, "lineno", 0)
        return lineno in self.hot_lines or lineno - 1 in self.hot_lines

    def _visit_hot_scope(self, node) -> None:
        hot = self._is_hot_marked(node)
        if hot:
            self._hot_depth += 1
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            self._func_stack.append(node.name)
            self.generic_visit(node)
            self._func_stack.pop()
        else:
            self.generic_visit(node)
        if hot:
            self._hot_depth -= 1

    visit_For = _visit_hot_scope
    visit_While = _visit_hot_scope

    def visit_FunctionDef(self, node) -> None:
        self._visit_hot_scope(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_If(self, node: ast.If) -> None:
        self.visit(node.test)
        cold = self._hot_depth and _has_cold_guard(node.test)
        if cold:
            self._cold_depth += 1
        for stmt in node.body:
            self.visit(stmt)
        if cold:
            self._cold_depth -= 1
        for stmt in node.orelse:
            self.visit(stmt)

    def visit_Raise(self, node: ast.Raise) -> None:
        # Error paths may allocate; they run once, then everything stops.
        self._cold_depth += 1
        self.generic_visit(node)
        self._cold_depth -= 1

    def _hot_alloc(self, node: ast.AST, what: str) -> None:
        if self._hot_depth and not self._cold_depth:
            self.report(
                "LINT205", node,
                f"{what} allocates on every iteration of a "
                f"'# repro: hot' region; hoist it, precompute it in the "
                f"plan, or move it behind a cold guard")

    def visit_List(self, node: ast.List) -> None:
        self._hot_alloc(node, "list literal")
        self.generic_visit(node)

    def visit_Set(self, node: ast.Set) -> None:
        self._hot_alloc(node, "set literal")
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        self._hot_alloc(node, "dict literal")
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._hot_alloc(node, "list comprehension")
        self.generic_visit(node)

    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._hot_alloc(node, "set comprehension")
        self.generic_visit(node)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._hot_alloc(node, "dict comprehension")
        self.generic_visit(node)

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        self._hot_alloc(node, "f-string")
        self.generic_visit(node)

    # -- structure rules (LINT206 / LINT208) ---------------------------
    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._class_stack.append(node.name)
        if _STRUCT_NAME.search(node.name):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) \
                        and _annotation_heavy(stmt.annotation):
                    self.report(
                        "LINT206", stmt,
                        f"{node.name} declares a field of a heavy "
                        f"runtime type ({', '.join(sorted(_HEAVY_TYPES))}"
                        f" family); cached/keyed structures must hold "
                        f"derived data, not object references (breaks "
                        f"the weak-keyed plan cache)")
        self.generic_visit(node)
        self._class_stack.pop()

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_attr_store(node, target, node.value)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_attr_store(node, node.target, None)
        self.generic_visit(node)

    def _check_attr_store(self, node: ast.AST, target: ast.AST,
                          value) -> None:
        if not isinstance(target, ast.Attribute):
            return
        base_is_self = isinstance(target.value, ast.Name) \
            and target.value.id == "self"
        klass = self._class_stack[-1] if self._class_stack else ""
        method = self._func_stack[-1] if self._func_stack else ""

        # LINT206: self.network = network (and friends) inside a
        # plan/cache-shaped class.
        if base_is_self and klass and _STRUCT_NAME.search(klass):
            stored = _identifier(value) if value is not None else ""
            if target.attr in _HEAVY_NAMES or stored in _HEAVY_NAMES:
                self.report(
                    "LINT206", node,
                    f"{klass}.{target.attr} retains a "
                    f"{stored or target.attr!r} reference; cached/keyed "
                    f"structures must hold derived data, not the object "
                    f"itself (breaks the weak-keyed plan cache)")

        # LINT208a: a plan-family class mutating itself outside __init__.
        if base_is_self and klass in _PLAN_CLASSES and method != "__init__":
            self.report(
                "LINT208", node,
                f"{klass}.{target.attr} assigned in {method}(); plan "
                f"objects are shared through a content-keyed cache and "
                f"must only be written in their constructor")

        # LINT208b: anyone else assigning a distinctive plan field.
        if not base_is_self and not self.in_plan_home \
                and target.attr in _PLAN_FIELDS:
            self.report(
                "LINT208", node,
                f"assignment to plan field '.{target.attr}' outside "
                f"core/plan.py; compiled plans are shared through a "
                f"content-keyed cache — mutating one poisons every "
                f"holder (rebuild via the constructor instead)")

    # ------------------------------------------------------------------
    def finish(self) -> List[Diagnostic]:
        # LINT207: every allow() must have suppressed something.  An
        # allow(LINT207) is exempt from the check (it exists to silence
        # this very rule during staged cleanups).
        for lineno in sorted(self.allowed):
            unused = self.allowed[lineno] \
                - self.used.get(lineno, set()) - {"LINT207"}
            for rule in sorted(unused):
                self.report(
                    "LINT207", _at(lineno),
                    f"suppression 'repro: allow({rule})' never fires on "
                    f"this line; delete it (stale allows hide future "
                    f"regressions)")
        return self.diagnostics


def _at(lineno: int) -> ast.AST:
    node = ast.Pass()
    node.lineno = lineno
    return node


def _has_cold_guard(test: ast.AST) -> bool:
    for sub in ast.walk(test):
        name = _identifier(sub)
        if name and any(g in name.lower() for g in _COLD_GUARDS):
            return True
    return False


def _annotation_heavy(annotation: ast.AST) -> bool:
    """Does a type annotation mention Network/Timeline (even quoted)?"""
    for sub in ast.walk(annotation):
        name = _identifier(sub)
        if name in _HEAVY_TYPES:
            return True
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str) \
                and any(t in sub.value for t in _HEAVY_TYPES):
            return True
    return False


def _identifier(node: ast.AST) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def _is_zero_or_none(node: ast.AST) -> bool:
    """Literal 0 / 0.0 / None: the legitimate exact sentinels."""
    return isinstance(node, ast.Constant) and (
        node.value is None
        or (isinstance(node.value, (int, float))
            and not isinstance(node.value, bool) and node.value == 0))


# ----------------------------------------------------------------------
def lint_file(path: Path, root: Path) -> List[Diagnostic]:
    """Lint one source file; ``root`` anchors the relative path."""
    try:
        rel = str(path.resolve().relative_to(root.resolve()))
    except ValueError:
        rel = str(path)
    source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
    except SyntaxError as error:
        return [Diagnostic.make(
            "LINT203", f"file does not parse: {error}",
            subject=rel, location=f"{rel}:{error.lineno or 0}")]
    linter = _Linter(path, rel, source, tree)
    linter.visit(tree)
    return linter.finish()


def default_root() -> Path:
    """The ``src/`` directory this installation of repro lives in."""
    return Path(__file__).resolve().parents[2]


def lint_paths(paths: Sequence[Path], root: Path = None) -> Report:
    """Lint every ``.py`` file under the given paths into one report."""
    root = root or default_root()
    seen: Set[Path] = set()
    report = Report(subject="lint")
    for path in paths:
        files = sorted(path.rglob("*.py")) if path.is_dir() else [path]
        for file in files:
            resolved = file.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            report.extend(lint_file(file, root))
    return report


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="AST lint for reproducibility invariants "
                    "(LINT201-LINT209)")
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories (default: the repro "
                             "package)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text")
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings too, not just "
                             "errors (the CI gate)")
    args = parser.parse_args(argv)

    paths = args.paths or [default_root() / "repro"]
    report = lint_paths(paths)
    if args.format == "json":
        print(render_reports_json([report]))
    else:
        print(report.render_text())
    if args.strict:
        return 0 if not report.diagnostics else 1
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
