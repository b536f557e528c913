"""Structured diagnostics shared by every analysis pass.

Each finding is one :class:`Diagnostic`: a rule id from the
:data:`RULES` catalog, a severity, a human-readable message, and
references back to the evidence (trace ops, timeline events, source
locations).  Passes append diagnostics to a :class:`Report`, which
renders them as text for humans or JSON for CI, and decides the process
exit status (any ERROR fails the gate).

Rule-id namespaces:

* ``HB0xx`` — happens-before races (:mod:`repro.analysis.hb`);
* ``MS1xx`` — memory-safety violations (:mod:`repro.analysis.safety`);
* ``MT3xx`` — multi-tenant shared-pool schedules
  (:func:`repro.analysis.verify.verify_schedule`);
* ``LINT2xx`` — repo source lint (:mod:`repro.analysis.lint`);
* ``SP4xx`` — static plan proofs (:mod:`repro.analysis.static_plan`):
  invariants proved over a :class:`~repro.core.plan.CompiledPlan` (or a
  serve :class:`~repro.serve.layering.ServicePlan` / recompute
  :class:`~repro.core.recompute.CheckpointPlan`) *before* any
  simulation runs.

A diagnostic can be suppressed in source with ``# repro: allow(RULE)``
(lint rules) or filtered by rule id when rendering (see
:meth:`Report.without`); suppression is deliberate and visible, never
silent.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Tuple


class Severity(enum.Enum):
    """How bad a finding is; ERROR fails the verify/lint gates."""

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"

    @property
    def rank(self) -> int:
        return {"info": 10, "warning": 20, "error": 30}[self.value]


#: rule id -> (default severity, one-line description).  docs/analysis.md
#: renders this catalog; keep the two in sync.
RULES: Dict[str, Tuple[Severity, str]] = {
    # -- happens-before races ------------------------------------------
    "HB001": (Severity.ERROR,
              "conflicting accesses to one buffer on different streams "
              "with no happens-before ordering"),
    "HB002": (Severity.ERROR,
              "pool block released before its offload transfer is "
              "guaranteed complete (missing end-of-layer sync)"),
    "HB003": (Severity.ERROR,
              "backward kernel reads a prefetched buffer with no "
              "ordering edge from the prefetch transfer (missing "
              "prefetch sync)"),
    "HB004": (Severity.WARNING,
              "prefetch issued outside the Fig. 10 CONV-bounded search "
              "window (X restored too far ahead of its first use)"),
    # -- memory safety --------------------------------------------------
    "MS101": (Severity.ERROR,
              "buffer used (kernel or DMA) while it has no live pool "
              "allocation (use-after-release or use-before-alloc)"),
    "MS102": (Severity.ERROR,
              "buffer freed while not live (double free)"),
    "MS103": (Severity.ERROR,
              "non-persistent block still live at iteration end (leak)"),
    "MS104": (Severity.ERROR,
              "allocation overlaps bytes another live buffer holds, or "
              "bytes an in-flight transfer may still be reading"),
    "MS105": (Severity.ERROR,
              "feature map released before its last forward consumer "
              "ran, or discarded without offload while backward still "
              "needs it (refcount gate of Fig. 3 violated)"),
    # -- multi-tenant shared pool ---------------------------------------
    "MT301": (Severity.ERROR,
              "shared-pool occupancy exceeds the memory budget"),
    "MT302": (Severity.ERROR,
              "one job's residency intervals overlap in time"),
    "MT303": (Severity.ERROR,
              "pool bytes still live after every job finished "
              "(job allocation leaked)"),
    "MT304": (Severity.ERROR,
              "inconsistent job record (finish before admit, rejected "
              "job with residency, finished job without admission)"),
    # -- source lint ----------------------------------------------------
    "LINT201": (Severity.ERROR,
                "json.dumps without sort_keys=True in a fingerprint "
                "path (cache keys must be canonical)"),
    "LINT202": (Severity.ERROR,
                "json.dumps with default=str/repr (enums would "
                "serialize by name/repr, not by value)"),
    "LINT203": (Severity.ERROR,
                "wall-clock or unseeded randomness in a pure "
                "simulation module (breaks replay/caching)"),
    "LINT204": (Severity.ERROR,
                "float == / != on a byte/latency quantity (compare "
                "with a tolerance, or against a literal-zero sentinel)"),
    "LINT205": (Severity.ERROR,
                "per-iteration allocation (list/dict/set literal, "
                "comprehension, f-string, sorted()) inside a region "
                "marked '# repro: hot'"),
    "LINT206": (Severity.ERROR,
                "Network/Timeline reference retained in a cache-keyed "
                "or plan structure (would make WeakKeyDictionary "
                "entries immortal)"),
    "LINT207": (Severity.WARNING,
                "unused '# repro: allow(RULE)' suppression (the rule "
                "no longer fires on that line)"),
    "LINT208": (Severity.ERROR,
                "mutation of a CompiledPlan/StorageRecord field "
                "outside its constructor (plans are shared cache "
                "entries)"),
    "LINT209": (Severity.ERROR,
                "module-scope numpy import outside repro.numerics, or "
                "module-scope concurrent.futures import (import them "
                "in the function that needs them)"),
    # -- static plan proofs ---------------------------------------------
    "SP401": (Severity.WARNING,
              "statically computed peak usage exceeds the device "
              "budget (reports the exact first-violating step), or "
              "the pinned-host budget aborts the plan"),
    "SP402": (Severity.ERROR,
              "refcount gate of Fig. 3 violated in the plan: a feature "
              "map is released before its last forward consumer, "
              "discarded while backward needs it, or freed before its "
              "offload transfer is covered by a sync"),
    "SP403": (Severity.ERROR,
              "prefetch discipline of Fig. 10 / SIII-C violated: a "
              "restored buffer is read before its prefetch is synced, "
              "or (warning) the prefetch target lies outside the "
              "CONV-bounded search window"),
    "SP404": (Severity.ERROR,
              "release lists do not free every allocation exactly "
              "once: static leak, double free, or a release scheduled "
              "at the wrong backward step (use-after-free)"),
    "SP405": (Severity.ERROR,
              "recompute plan cannot re-materialize a dropped storage "
              "before its backward consumer (regeneration bottoms out "
              "at freed state, or the checkpoint partition is "
              "inconsistent)"),
    "SP406": (Severity.ERROR,
              "ServicePlan accounting inconsistent: residency/window/"
              "footprint/stall invariants of the demand-layering "
              "pipeline do not hold"),
    "SP407": (Severity.ERROR,
              "compressed-transfer model inconsistent: a record's wire "
              "size escapes (0, nbytes], disagrees with the cDMA "
              "sparsity model, or its DMA duration drops the engine "
              "latency"),
}


def rule_severity(rule: str) -> Severity:
    return RULES[rule][0]


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one analysis pass."""

    rule: str
    severity: Severity
    message: str
    subject: str = ""              # network/config label, or file for lint
    location: str = ""             # "file:line" for lint findings
    refs: Tuple[str, ...] = ()     # evidence: trace-op / event references

    @classmethod
    def make(cls, rule: str, message: str, subject: str = "",
             location: str = "", refs: Iterable[str] = (),
             severity: "Severity" = None) -> "Diagnostic":
        """Build a diagnostic with the rule's catalog severity.

        ``severity`` overrides the catalog default for rules whose
        findings span severities (e.g. SP403's window violations are
        warnings, mirroring HB004, while its ordering violations are
        errors).  Overrides may only *lower* severity — an override
        above the catalog default would let a pass silently promote a
        documented warning into a gate failure.
        """
        default = rule_severity(rule)
        if severity is not None and severity.rank > default.rank:
            raise ValueError(
                f"severity override {severity.value} exceeds {rule}'s "
                f"catalog severity {default.value}")
        return cls(rule=rule, severity=severity or default, message=message,
                   subject=subject, location=location, refs=tuple(refs))

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "severity": self.severity.value,
            "message": self.message,
            "subject": self.subject,
            "location": self.location,
            "refs": list(self.refs),
        }

    def render(self) -> str:
        where = f"{self.location}: " if self.location else ""
        refs = f"  [{'; '.join(self.refs)}]" if self.refs else ""
        return (f"{self.severity.value.upper():7s} {self.rule} "
                f"{where}{self.message}{refs}")


@dataclass
class Report:
    """Diagnostics from one analysis run over one subject."""

    subject: str = ""
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def add(self, rule: str, message: str, location: str = "",
            refs: Iterable[str] = (),
            severity: Severity = None) -> Diagnostic:
        diagnostic = Diagnostic.make(rule, message, subject=self.subject,
                                     location=location, refs=refs,
                                     severity=severity)
        self.diagnostics.append(diagnostic)
        return diagnostic

    def extend(self, diagnostics: Iterable[Diagnostic]) -> None:
        self.diagnostics.extend(diagnostics)

    # ------------------------------------------------------------------
    @property
    def errors(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    @property
    def warnings(self) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    @property
    def ok(self) -> bool:
        """True when the subject passed the gate (no ERROR findings)."""
        return not self.errors

    def by_rule(self, rule: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.rule == rule]

    def without(self, *rules: str) -> "Report":
        """A copy with the given rule ids filtered out (suppression)."""
        return Report(self.subject, [
            d for d in self.diagnostics if d.rule not in rules
        ])

    def counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for diagnostic in self.diagnostics:
            counts[diagnostic.rule] = counts.get(diagnostic.rule, 0) + 1
        return counts

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "subject": self.subject,
            "ok": self.ok,
            "errors": len(self.errors),
            "warnings": len(self.warnings),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def render_text(self) -> str:
        status = "ok" if self.ok else f"FAIL ({len(self.errors)} error(s))"
        lines = [f"{self.subject or '(unnamed)'}: {status}"]
        for diagnostic in sorted(
                self.diagnostics,
                key=lambda d: (-d.severity.rank, d.rule, d.location)):
            lines.append("  " + diagnostic.render())
        return "\n".join(lines)


def render_reports_json(reports: List[Report]) -> str:
    """Aggregate JSON for a batch of reports (the ``--format json`` CLI).

    Exit-code contract (documented in docs/analysis.md): the CLI that
    prints this payload exits 0 iff ``payload["ok"]`` is true — i.e.
    non-zero whenever any ERROR finding exists, for both output
    formats.  ``rule_counts`` aggregates finding counts by rule id
    across every report, so CI can gate or trend on individual rules
    without re-walking ``reports``.
    """
    rule_counts: Dict[str, int] = {}
    for report in reports:
        for rule, count in report.counts().items():
            rule_counts[rule] = rule_counts.get(rule, 0) + count
    payload = {
        "ok": all(r.ok for r in reports),
        "errors": sum(len(r.errors) for r in reports),
        "warnings": sum(len(r.warnings) for r in reports),
        "rule_counts": rule_counts,
        "reports": [r.to_dict() for r in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
