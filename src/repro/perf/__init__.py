"""Performance layer: content-addressed simulation cache + parallel sweeps.

Every sweep in the repo — ``evaluate()``/``compare_policies()``, the
vDNN_dyn profiling ladder, the multi-tenant admission ladder and the
figure benchmarks — funnels through the same simulation points.  This
package makes those points fast twice over:

* :mod:`repro.perf.fingerprint` canonically fingerprints a
  (network, system, policy, algorithms) point with sha256 over sorted
  JSON, so identical points hash identically across processes and runs;
* :mod:`repro.perf.cache` keys pickled :class:`IterationResult` blobs on
  those fingerprints (in-memory LRU + optional on-disk store), so a
  point is simulated at most once;
* :mod:`repro.perf.sweep` fans independent points out across worker
  processes and merges their results back into the parent's cache.

Environment knobs:

* ``REPRO_NO_CACHE=1``  — disable the cache (bit-identical fallback);
* ``REPRO_CACHE_SIZE``  — in-memory LRU capacity (entries, default 256);
* ``REPRO_CACHE_DIR``   — optional on-disk store directory;
* ``REPRO_JOBS``        — default worker count for parallel sweeps.
"""

from .._lazy import lazy_exports

# ``fingerprint`` and ``sweep`` name both a function and the submodule
# defining it.  Importing a submodule binds it on its package, so a lazy
# entry would read back the module once anything imported it; binding
# the functions here, after their submodules, keeps them callable.
from .fingerprint import fingerprint
from .sweep import sweep

#: public name -> defining submodule
_EXPORTS = {
    "CacheStats": "cache",
    "SimulationCache": "cache",
    "cache_enabled": "cache",
    "configure_cache": "cache",
    "get_cache": "cache",
    "set_cache": "cache",
    "canonical_json": "fingerprint",
    "fingerprint_network": "fingerprint",
    "fingerprint_point": "fingerprint",
    "SweepPoint": "sweep",
    "resolve_jobs": "sweep",
}

__all__ = sorted([*_EXPORTS, "fingerprint", "sweep"])

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
