"""Static analysis of generated schedules: the vDNN schedule sanitizer.

Three passes over already-generated artifacts (no re-simulation):

* :mod:`~repro.analysis.hb` — happens-before race detection over
  :class:`~repro.analysis.trace.ScheduleTrace` (HB0xx rules);
* :mod:`~repro.analysis.safety` — symbolic replay of the allocation
  schedule against pool semantics (MS1xx rules);
* :mod:`~repro.analysis.lint` — AST lint of the repo source for
  reproducibility invariants (LINT2xx rules);
* :mod:`~repro.analysis.static_plan` — abstract interpretation of
  compiled plans, proving the vDNN schedule and memory invariants
  before anything runs (SP4xx rules; ``repro verify --static``).

:mod:`~repro.analysis.verify` drives the trace passes over simulations
(``repro verify``); :func:`~repro.analysis.verify.verify_schedule`
covers the multi-tenant scheduler (MT3xx rules).

Attribute access is lazy (PEP 562, :mod:`repro._lazy`):
``repro.core.executor`` imports :mod:`repro.analysis.trace` while
:mod:`repro.analysis.verify` imports ``repro.core`` — eager re-exports
here would close that cycle.
"""

from .._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "Diagnostic": "diagnostics",
    "Report": "diagnostics",
    "Severity": "diagnostics",
    "RULES": "diagnostics",
    "render_reports_json": "diagnostics",
    "ScheduleTrace": "trace",
    "TraceOp": "trace",
    "OpKind": "trace",
    "HOST_STREAM": "trace",
    "HBGraph": "hb",
    "check_races": "hb",
    "check_memory_safety": "safety",
    "analyze_trace": "verify",
    "verify_result": "verify",
    "verify_point": "verify",
    "verify_zoo": "verify",
    "verify_schedule": "verify",
    "SWEEP_POLICIES": "verify",
    "lint_paths": "lint",
    "lint_file": "lint",
    "PlanInterpretation": "static_plan",
    "interpret_plan": "static_plan",
    "interpret_joint_plan": "static_plan",
    "audit_plan": "static_plan",
    "verify_compiled_plan": "static_plan",
    "verify_plan": "static_plan",
    "verify_joint_plan": "static_plan",
    "verify_point_static": "static_plan",
    "verify_zoo_static": "static_plan",
    "verify_recompute_plan": "static_plan",
    "verify_service_plan": "static_plan",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
