"""Deterministic fault injection and graceful-degradation machinery."""

from .._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "DMAAbortError": "injector",
    "FaultInjector": "injector",
    "make_injector": "injector",
    "FAILED_OUTCOMES": "report",
    "FaultEvent": "report",
    "FaultReport": "report",
    "DEFAULT_BACKOFF_BASE": "spec",
    "DEFAULT_BACKOFF_FACTOR": "spec",
    "DEFAULT_MAX_ATTEMPTS": "spec",
    "FaultSpec": "spec",
    "FaultSpecError": "spec",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
