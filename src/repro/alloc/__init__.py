"""Memory allocators: cnmem-style pool, byte counter, pinned host, stats."""

from .pinned import PinnedBuffer, PinnedHostAllocator, PinnedMemoryError
from .pool import (ALIGNMENT, Allocation, DoubleFreeError, LiveByteCounter,
                   OutOfMemoryError, PoolAllocator)
from .stats import UsageSample, UsageTracker

__all__ = [
    "ALIGNMENT",
    "Allocation",
    "DoubleFreeError",
    "LiveByteCounter",
    "OutOfMemoryError",
    "PinnedBuffer",
    "PinnedHostAllocator",
    "PinnedMemoryError",
    "PoolAllocator",
    "UsageSample",
    "UsageTracker",
]
