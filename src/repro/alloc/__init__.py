"""Memory allocators: cnmem-style pool, byte counter, pinned host, stats."""

from .._lazy import lazy_exports

#: public name -> defining submodule
_EXPORTS = {
    "PinnedBuffer": "pinned",
    "PinnedHostAllocator": "pinned",
    "PinnedMemoryError": "pinned",
    "ALIGNMENT": "pool",
    "Allocation": "pool",
    "DoubleFreeError": "pool",
    "LiveByteCounter": "pool",
    "OutOfMemoryError": "pool",
    "PoolAllocator": "pool",
    "UsageSample": "stats",
    "UsageTracker": "stats",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
