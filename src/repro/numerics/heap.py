"""Byte-budgeted device heap and host heap for the functional runtime.

Where the simulator only *accounts* for memory, the functional runtime
actually stores numpy arrays in a :class:`DeviceHeap` with a hard byte
budget — exceeding it raises, exactly like ``cudaMalloc`` failing on a
12 GB card.  Offload moves an array into the :class:`HostHeap` (modeling
pinned CPU memory) and frees the device bytes; prefetch moves it back.
Transfers copy the data, so a liveness bug (releasing a buffer that is
still needed, or reading a stale one) cannot hide: training diverges or
the heap raises.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np


class DeviceOOMError(MemoryError):
    """The device heap's byte budget is exhausted."""


class HeapError(RuntimeError):
    """Misuse of the heap (double store, missing key, use-after-free)."""


class DeviceHeap:
    """Named numpy buffers under a hard byte budget."""

    def __init__(self, budget_bytes: int):
        if budget_bytes <= 0:
            raise ValueError("device budget must be positive")
        self.budget_bytes = budget_bytes
        self._arrays: Dict[str, np.ndarray] = {}
        self._live_bytes = 0
        self._peak_bytes = 0

    def store(self, key: str, array: np.ndarray) -> np.ndarray:
        if key in self._arrays:
            raise HeapError(f"device buffer {key!r} already exists")
        nbytes = array.nbytes
        if self._live_bytes + nbytes > self.budget_bytes:
            raise DeviceOOMError(
                f"device OOM storing {key!r} ({nbytes} bytes): "
                f"{self._live_bytes}/{self.budget_bytes} live"
            )
        self._arrays[key] = array
        self._live_bytes += nbytes
        self._peak_bytes = max(self._peak_bytes, self._live_bytes)
        return array

    def get(self, key: str) -> np.ndarray:
        try:
            return self._arrays[key]
        except KeyError:
            raise HeapError(
                f"device buffer {key!r} is not resident (freed or offloaded?)"
            ) from None

    def contains(self, key: str) -> bool:
        return key in self._arrays

    def free(self, key: str) -> None:
        array = self._arrays.pop(key, None)
        if array is None:
            raise HeapError(f"freeing non-resident device buffer {key!r}")
        self._live_bytes -= array.nbytes

    def pop(self, key: str) -> np.ndarray:
        """Remove and return a buffer (used by offload)."""
        array = self.get(key)
        self.free(key)
        return array

    @property
    def live_bytes(self) -> int:
        return self._live_bytes

    @property
    def peak_bytes(self) -> int:
        return self._peak_bytes

    @property
    def keys(self):
        return set(self._arrays)


class HostHeap:
    """Pinned host staging area for offloaded buffers."""

    def __init__(self, budget_bytes: Optional[int] = None):
        self.budget_bytes = budget_bytes
        self._arrays: Dict[str, np.ndarray] = {}
        self._live_bytes = 0
        self._peak_bytes = 0
        self.offload_count = 0
        self.prefetch_count = 0
        #: key -> fraction of exact zeros in the last array offloaded
        #: under it: the ReLU sparsity a cDMA engine would compress.
        self.zero_fractions: Dict[str, float] = {}

    def offload(self, key: str, array: np.ndarray) -> None:
        if key in self._arrays:
            raise HeapError(f"host buffer {key!r} already exists")
        if self.budget_bytes is not None and \
                self._live_bytes + array.nbytes > self.budget_bytes:
            raise DeviceOOMError(
                f"host pinned budget exhausted offloading {key!r}"
            )
        # The DMA copies through PCIe; model with an explicit copy so
        # accidental aliasing of the device array cannot mask bugs.
        self._arrays[key] = array.copy()
        self.zero_fractions[key] = 1.0 - np.count_nonzero(array) / array.size
        self._live_bytes += array.nbytes
        self._peak_bytes = max(self._peak_bytes, self._live_bytes)
        self.offload_count += 1

    def prefetch(self, key: str) -> np.ndarray:
        array = self._arrays.pop(key, None)
        if array is None:
            raise HeapError(f"prefetching unknown host buffer {key!r}")
        self._live_bytes -= array.nbytes
        self.prefetch_count += 1
        return array.copy()

    def contains(self, key: str) -> bool:
        return key in self._arrays

    @property
    def live_bytes(self) -> int:
        return self._live_bytes

    @property
    def peak_bytes(self) -> int:
        return self._peak_bytes
