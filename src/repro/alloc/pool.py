"""cnmem-style device memory pool.

vDNN "employs the open-source asynchronous memory allocation/release API
library distributed by NVIDIA [cnmem]": a pool sized to the physical GPU
memory is reserved once, and all tensor (de)allocations are served from
it without touching ``cudaMalloc``/``cudaFree`` (Section III-B).

:class:`PoolAllocator` reproduces that allocator faithfully enough to
measure what the paper measures: best-fit allocation with block
splitting, free-block coalescing, 256-byte alignment (CUDA's allocation
granularity), an out-of-memory signal that defines *trainability*, and
live/peak byte accounting.

Free blocks are indexed twice, both orders maintained with ``bisect``:

* by **offset** — an ordered list that makes coalescing a neighbour
  lookup instead of a scan;
* by **(size, offset)** — an ordered list that makes best-fit placement
  one binary search (smallest fitting hole, ties broken by lowest
  offset) and ``largest_free_block``/``can_fit`` O(1) reads.

``malloc``/``free``/coalesce/placement are therefore O(log n) in the
number of free blocks, which is what keeps multi-tenant schedules and
10k-block allocation traces fast.  (``first_fit`` placement — kept for
the fragmentation ablation — still scans offsets in order.)
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: CUDA device allocations are 256-byte aligned.
ALIGNMENT = 256


class OutOfMemoryError(MemoryError):
    """Raised when an allocation cannot be satisfied from the pool.

    Carries enough context for the dynamic policy to report why a
    configuration is untrainable.
    """

    def __init__(self, requested: int, live: int, capacity: int, tag: str = ""):
        self.requested = requested
        self.live = live
        self.capacity = capacity
        self.tag = tag
        super().__init__(
            f"pool OOM allocating {requested} bytes"
            + (f" for {tag!r}" if tag else "")
            + f": {live}/{capacity} bytes live"
        )


@dataclass
class Allocation:
    """A live block handed out by the pool."""

    offset: int
    size: int          # aligned size actually reserved
    requested: int     # caller-visible size
    tag: str = ""
    freed: bool = field(default=False, compare=False)


class DoubleFreeError(ValueError):
    """Raised when an already-released block is freed again.

    Carries the block's placement so the schedule sanitizer (and humans
    reading a traceback) can say *which* allocation was freed twice, not
    just that one was.
    """

    def __init__(self, allocation: "Allocation"):
        self.offset = allocation.offset
        self.size = allocation.size
        self.tag = allocation.tag
        super().__init__(
            f"double free of block at offset {allocation.offset} "
            f"({allocation.size} bytes"
            + (f", tag {allocation.tag!r}" if allocation.tag else "")
            + ")"
        )


def _align(nbytes: int) -> int:
    return (nbytes + ALIGNMENT - 1) // ALIGNMENT * ALIGNMENT


def footprint(nbytes: int) -> int:
    """The pool bytes an ``nbytes`` allocation occupies (even zero)."""
    return max(_align(nbytes), ALIGNMENT)


def fits_hole(nbytes: int, hole: int) -> bool:
    """Whether an ``nbytes`` allocation fits a ``hole``-byte free extent."""
    return nbytes >= 0 and footprint(nbytes) <= hole


class LiveByteCounter:
    """The pool's byte accounting without its placement.

    A walk needs only the live-byte curve (Figure 11's maximum and
    time-weighted average), so every executor walk counts with this.
    It has the pool's walk-facing surface — :meth:`alloc` returns an
    :class:`Allocation` carrying the aligned ``size`` (``offset`` is -1:
    unplaced), :meth:`free` keeps the double-free check, and
    ``live_bytes``/``peak_bytes`` read as on the pool — at O(1) per
    operation.  Both round every block with :func:`footprint`, so its
    curve is an unbounded pool's, operation for operation; a traced
    walk's placements are replayed from its trace
    (:func:`repro.analysis.trace.place_blocks`).
    """

    __slots__ = ("live_bytes", "peak_bytes")

    def __init__(self) -> None:
        self.live_bytes = 0
        self.peak_bytes = 0

    def alloc(self, nbytes: int, tag: str = "") -> Allocation:
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        size = footprint(nbytes)
        live = self.live_bytes + size
        self.live_bytes = live
        if live > self.peak_bytes:
            self.peak_bytes = live
        return Allocation(-1, size, nbytes, tag)

    def free(self, allocation: Allocation) -> None:
        if allocation.freed:
            raise DoubleFreeError(allocation)
        allocation.freed = True
        self.live_bytes -= allocation.size


#: Placement strategies: cnmem uses best-fit; first-fit is provided for
#: the fragmentation ablation.
STRATEGIES = ("best_fit", "first_fit")


class PoolAllocator:
    """Pool allocator with splitting, coalescing and pluggable placement."""

    def __init__(self, capacity: int, strategy: str = "best_fit"):
        if capacity <= 0:
            raise ValueError("pool capacity must be positive")
        if strategy not in STRATEGIES:
            raise ValueError(
                f"strategy must be one of {STRATEGIES}, got {strategy!r}"
            )
        self.capacity = capacity
        self.strategy = strategy
        # Free blocks as {offset: size}, kept coalesced and disjoint,
        # plus the two bisect-maintained orderings described above.
        self._free: Dict[int, int] = {0: capacity}
        self._free_offsets: List[int] = [0]
        self._free_by_size: List[Tuple[int, int]] = [(capacity, 0)]
        self._live: Dict[int, Allocation] = {}
        self._live_bytes = 0
        self._peak_bytes = 0
        self._alloc_count = 0
        self._free_count = 0

    # ------------------------------------------------------------------
    # Free-index maintenance (every operation O(log n))
    # ------------------------------------------------------------------
    def _add_free(self, offset: int, size: int) -> None:
        self._free[offset] = size
        insort(self._free_offsets, offset)
        insort(self._free_by_size, (size, offset))

    def _remove_free(self, offset: int) -> int:
        size = self._free.pop(offset)
        index = bisect_left(self._free_offsets, offset)
        del self._free_offsets[index]
        index = bisect_left(self._free_by_size, (size, offset))
        del self._free_by_size[index]
        return size

    # ------------------------------------------------------------------
    # Core API
    # ------------------------------------------------------------------
    def _place(self, size: int) -> Optional[int]:
        if self.strategy == "first_fit":
            # Lowest-offset fitting hole; O(n) scan kept for the ablation.
            for offset in self._free_offsets:
                if self._free[offset] >= size:
                    return offset
            return None
        # Best fit: smallest hole that fits, ties broken by lowest
        # offset — exactly the first (size, offset) pair at or after
        # (size, -1) in the size-ordered index.
        index = bisect_left(self._free_by_size, (size, -1))
        if index == len(self._free_by_size):
            return None
        return self._free_by_size[index][1]

    def alloc(self, nbytes: int, tag: str = "") -> Allocation:
        """Reserve ``nbytes`` (rounded up to the alignment granule)."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        size = footprint(nbytes)

        best_offset = self._place(size)
        if best_offset is None:
            raise OutOfMemoryError(size, self._live_bytes, self.capacity, tag)
        best_size = self._remove_free(best_offset)
        if best_size > size:
            self._add_free(best_offset + size, best_size - size)

        allocation = Allocation(offset=best_offset, size=size, requested=nbytes, tag=tag)
        self._live[best_offset] = allocation
        self._live_bytes += size
        if self._live_bytes > self._peak_bytes:
            self._peak_bytes = self._live_bytes
        self._alloc_count += 1
        return allocation

    def charge(self, size: int) -> Tuple[int, float]:
        """Account a block held while nothing else touches the pool.

        Equivalent to ``alloc(nbytes)`` of any ``nbytes`` whose
        :func:`footprint` is ``size``, reading ``live_bytes`` and
        ``fragmentation``, then ``free`` — and returns those two reads —
        without placing the block.  The pool keeps its free blocks coalesced, so the
        hole ``alloc`` would carve is re-formed whole by ``free``: only
        the high-water mark and the alloc/free counts move.  Raises
        :class:`OutOfMemoryError` exactly when ``alloc`` would.
        """
        offset = self._place(size)
        if offset is None:
            raise OutOfMemoryError(size, self._live_bytes, self.capacity)
        live = self._live_bytes + size
        if live > self._peak_bytes:
            self._peak_bytes = live
        self._alloc_count += 1
        self._free_count += 1

        total_free = self.capacity - live
        if total_free <= 0:
            return live, 0.0
        # The largest hole once the chosen one is carved: unchanged
        # unless the chosen hole is the (last-ordered) largest itself.
        by_size = self._free_by_size
        hole = self._free[offset]
        largest = by_size[-1][0]
        if by_size[-1][1] == offset:
            largest = hole - size
            if len(by_size) > 1 and by_size[-2][0] > largest:
                largest = by_size[-2][0]
        return live, 1.0 - largest / total_free

    def free(self, allocation: Allocation) -> None:
        """Return a block to the pool, coalescing with free neighbours."""
        if allocation.freed:
            raise DoubleFreeError(allocation)
        stored = self._live.pop(allocation.offset, None)
        if stored is not allocation:
            raise ValueError(
                f"block at offset {allocation.offset} is not live in this pool"
            )
        allocation.freed = True
        self._live_bytes -= allocation.size
        self._free_count += 1

        offset, size = allocation.offset, allocation.size
        # Coalesce with the block immediately after (dict lookup).
        if offset + size in self._free:
            size += self._remove_free(offset + size)
        # Coalesce with the block immediately before (offset-order
        # predecessor, found by binary search).
        index = bisect_right(self._free_offsets, offset) - 1
        if index >= 0:
            prev_offset = self._free_offsets[index]
            if prev_offset + self._free[prev_offset] == offset:
                prev_size = self._remove_free(prev_offset)
                offset, size = prev_offset, prev_size + size
        self._add_free(offset, size)

    def free_all(self) -> None:
        """Release every live block (end-of-iteration reset)."""
        for allocation in list(self._live.values()):
            self.free(allocation)

    def blockers_above(self, boundary: int) -> List[Allocation]:
        """Live blocks extending past ``boundary``, highest offset first.

        These are the allocations a caller must free (e.g. by evicting
        their owners) before :meth:`shrink` to ``boundary`` can succeed.
        """
        return sorted(
            (a for a in self._live.values() if a.offset + a.size > boundary),
            key=lambda a: -a.offset,
        )

    def shrink(self, new_capacity: int) -> None:
        """Reduce the pool to ``new_capacity`` bytes (mid-run budget cut).

        Only free space can be surrendered: raises ``ValueError`` while
        any live block extends past the new boundary — callers evict the
        :meth:`blockers_above` first.  Free blocks beyond the boundary
        are dropped and a straddling one is truncated.
        """
        if new_capacity <= 0:
            raise ValueError("pool capacity must be positive")
        if new_capacity > self.capacity:
            raise ValueError(
                f"shrink cannot grow the pool "
                f"({new_capacity} > {self.capacity} bytes)"
            )
        if new_capacity == self.capacity:
            return
        blockers = self.blockers_above(new_capacity)
        if blockers:
            raise ValueError(
                f"cannot shrink to {new_capacity} bytes: {len(blockers)} "
                f"live block(s) extend past the new boundary"
            )
        for offset in [o for o in self._free_offsets
                       if o + self._free[o] > new_capacity]:
            self._remove_free(offset)
            if offset < new_capacity:
                self._add_free(offset, new_capacity - offset)
        self.capacity = new_capacity

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def live_bytes(self) -> int:
        """Bytes currently reserved."""
        return self._live_bytes

    @property
    def peak_bytes(self) -> int:
        """High-water mark of reserved bytes since construction."""
        return self._peak_bytes

    @property
    def free_bytes(self) -> int:
        return self.capacity - self._live_bytes

    @property
    def largest_free_block(self) -> int:
        """Largest contiguous free extent (what one alloc can get)."""
        return self._free_by_size[-1][0] if self._free_by_size else 0

    def can_fit(self, nbytes: int) -> bool:
        """Whether :meth:`alloc` of ``nbytes`` would succeed right now.

        Accounts for both alignment rounding and fragmentation — total
        free bytes may exceed ``nbytes`` while no single hole does.
        """
        return fits_hole(nbytes, self.largest_free_block)

    @property
    def fragmentation(self) -> float:
        """1 - (largest free block / total free bytes); 0 when empty/full."""
        total_free = self.capacity - self._live_bytes
        if total_free <= 0 or not self._free_by_size:
            return 0.0
        return 1.0 - self.largest_free_block / total_free

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "capacity": self.capacity,
            "live_bytes": self._live_bytes,
            "peak_bytes": self._peak_bytes,
            "allocs": self._alloc_count,
            "frees": self._free_count,
        }

    def check_invariants(self) -> None:
        """Verify the free indices and live set tile the pool exactly once.

        Used by tests and by paranoid callers; O(n log n).
        """
        if self._free_offsets != sorted(self._free):
            raise AssertionError("free offset index out of sync with free dict")
        expected_by_size = sorted((s, o) for o, s in self._free.items())
        if self._free_by_size != expected_by_size:
            raise AssertionError("free size index out of sync with free dict")
        spans = [(o, s, "free") for o, s in self._free.items()]
        spans += [(a.offset, a.size, "live") for a in self._live.values()]
        spans.sort()
        cursor = 0
        previous_kind = None
        for offset, size, kind in spans:
            if offset != cursor:
                raise AssertionError(
                    f"pool corruption: gap/overlap at offset {cursor}..{offset}"
                )
            if kind == "free" and previous_kind == "free":
                raise AssertionError("adjacent free blocks were not coalesced")
            cursor = offset + size
            previous_kind = kind
        if cursor != self.capacity:
            raise AssertionError(
                f"pool corruption: blocks cover {cursor} of {self.capacity} bytes"
            )
