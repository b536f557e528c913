"""Tests for the cnmem-style pool allocator, including property tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.alloc import (ALIGNMENT, DoubleFreeError, OutOfMemoryError,
                         PoolAllocator)


class TestBasics:
    def test_alloc_returns_aligned_block(self):
        pool = PoolAllocator(1 << 20)
        block = pool.alloc(100)
        assert block.size % ALIGNMENT == 0
        assert block.size >= 100
        assert block.requested == 100

    def test_zero_byte_alloc_reserves_one_granule(self):
        pool = PoolAllocator(1 << 20)
        assert pool.alloc(0).size == ALIGNMENT

    def test_negative_alloc_rejected(self):
        with pytest.raises(ValueError):
            PoolAllocator(1 << 20).alloc(-1)

    def test_live_bytes_track_allocations(self):
        pool = PoolAllocator(1 << 20)
        a = pool.alloc(1000)
        b = pool.alloc(2000)
        assert pool.live_bytes == a.size + b.size
        pool.free(a)
        assert pool.live_bytes == b.size

    def test_peak_is_high_water_mark(self):
        pool = PoolAllocator(1 << 20)
        a = pool.alloc(4096)
        peak = pool.peak_bytes
        pool.free(a)
        assert pool.peak_bytes == peak
        pool.alloc(1024)
        assert pool.peak_bytes == peak  # smaller than the old peak

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PoolAllocator(0)


class TestOOM:
    def test_oversized_alloc_raises(self):
        pool = PoolAllocator(1024)
        with pytest.raises(OutOfMemoryError):
            pool.alloc(4096)

    def test_oom_reports_context(self):
        pool = PoolAllocator(1024)
        pool.alloc(512)
        with pytest.raises(OutOfMemoryError) as excinfo:
            pool.alloc(1024, tag="Y[conv_1]")
        assert excinfo.value.tag == "Y[conv_1]"
        assert excinfo.value.capacity == 1024

    def test_fragmented_pool_can_oom_despite_free_bytes(self):
        pool = PoolAllocator(4 * ALIGNMENT)
        blocks = [pool.alloc(ALIGNMENT) for _ in range(4)]
        pool.free(blocks[0])
        pool.free(blocks[2])
        # Two free granules, but not contiguous.
        assert pool.free_bytes == 2 * ALIGNMENT
        with pytest.raises(OutOfMemoryError):
            pool.alloc(2 * ALIGNMENT)


class TestFreeAndCoalesce:
    def test_double_free_rejected(self):
        pool = PoolAllocator(1 << 20)
        block = pool.alloc(128)
        pool.free(block)
        with pytest.raises(ValueError, match="double free"):
            pool.free(block)

    def test_double_free_error_carries_block_context(self):
        pool = PoolAllocator(1 << 20)
        filler = pool.alloc(512)  # push the block off offset 0
        block = pool.alloc(128, tag="Y[conv_2]")
        pool.free(block)
        with pytest.raises(DoubleFreeError) as excinfo:
            pool.free(block)
        error = excinfo.value
        assert error.offset == block.offset == filler.size
        assert error.size == block.size
        assert error.tag == "Y[conv_2]"
        assert "Y[conv_2]" in str(error)
        assert f"offset {block.offset}" in str(error)

    def test_double_free_error_is_a_value_error(self):
        # Callers catching the historical ValueError keep working.
        assert issubclass(DoubleFreeError, ValueError)

    def test_foreign_block_rejected(self):
        pool_a = PoolAllocator(1 << 20)
        pool_b = PoolAllocator(1 << 20)
        block = pool_a.alloc(128)
        with pytest.raises(ValueError):
            pool_b.free(block)

    def test_full_release_coalesces_to_single_block(self):
        pool = PoolAllocator(1 << 20)
        blocks = [pool.alloc(1000) for _ in range(10)]
        for block in blocks:
            pool.free(block)
        pool.check_invariants()
        assert pool.fragmentation == 0.0
        # The whole capacity is again allocatable in one piece.
        big = pool.alloc(pool.capacity)
        assert big.size == pool.capacity

    def test_free_all(self):
        pool = PoolAllocator(1 << 20)
        for _ in range(5):
            pool.alloc(100)
        pool.free_all()
        assert pool.live_bytes == 0
        pool.check_invariants()

    def test_best_fit_prefers_snug_hole(self):
        pool = PoolAllocator(10 * ALIGNMENT)
        small = pool.alloc(ALIGNMENT)          # offset 0
        keeper = pool.alloc(ALIGNMENT)         # offset 1
        pool.free(small)                       # free hole of 1 granule at 0
        # Tail hole is 8 granules; the 1-granule request should take the
        # snug hole at offset 0, not split the tail.
        block = pool.alloc(ALIGNMENT)
        assert block.offset == 0
        assert keeper.offset == ALIGNMENT

    def test_reuse_after_free(self):
        pool = PoolAllocator(2 * ALIGNMENT)
        a = pool.alloc(ALIGNMENT)
        b = pool.alloc(ALIGNMENT)
        pool.free(a)
        c = pool.alloc(ALIGNMENT)
        assert c.offset == 0
        pool.free(b)
        pool.free(c)


class TestPlacementStrategies:
    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            PoolAllocator(1 << 20, strategy="worst_fit")

    def test_first_fit_takes_lowest_offset(self):
        pool = PoolAllocator(10 * ALIGNMENT, strategy="first_fit")
        a = pool.alloc(2 * ALIGNMENT)
        keeper = pool.alloc(ALIGNMENT)
        pool.free(a)  # 2-granule hole at offset 0, big tail after keeper
        block = pool.alloc(ALIGNMENT)
        assert block.offset == 0  # first fit, even though not snug
        pool.free(keeper)
        pool.free(block)

    def test_best_fit_takes_snug_hole(self):
        pool = PoolAllocator(10 * ALIGNMENT, strategy="best_fit")
        a = pool.alloc(2 * ALIGNMENT)      # offset 0
        sep1 = pool.alloc(ALIGNMENT)       # offset 2 (separator)
        b = pool.alloc(ALIGNMENT)          # offset 3
        sep2 = pool.alloc(ALIGNMENT)       # offset 4 (separator)
        pool.free(a)                       # 2-granule hole at 0
        pool.free(b)                       # 1-granule hole at 3
        block = pool.alloc(ALIGNMENT)
        assert block.offset == 3 * ALIGNMENT  # snugger of the two holes
        pool.free(sep1)
        pool.free(sep2)

    def test_first_fit_preserves_invariants(self):
        pool = PoolAllocator(1 << 16, strategy="first_fit")
        blocks = [pool.alloc(100 * (i + 1)) for i in range(10)]
        for block in blocks[::2]:
            pool.free(block)
        pool.check_invariants()
        for block in blocks[1::2]:
            pool.free(block)
        pool.check_invariants()
        assert pool.live_bytes == 0


class TestBestFitTightestHole:
    """Best fit must take the *smallest* fitting hole, ties by offset.

    Regression tests for the fragmentation bug where placement picked a
    larger hole while a snugger one existed, splitting big extents and
    shrinking ``largest_free_block`` needlessly.
    """

    def test_mid_sized_request_spares_the_large_hole(self):
        pool = PoolAllocator(16384)
        a = pool.alloc(8192)           # offset 0
        b = pool.alloc(1024)           # offset 8192 (separator)
        c = pool.alloc(6144)           # offset 9216
        d = pool.alloc(1024)           # offset 15360 (separator)
        pool.free(a)                   # hole: 8192 @ 0
        pool.free(c)                   # hole: 6144 @ 9216
        block = pool.alloc(4096)
        # Must carve the 6144 hole, leaving the 8192 extent whole.
        assert block.offset == 9216
        assert pool.largest_free_block == 8192
        pool.check_invariants()
        pool.free(b)
        pool.free(d)

    def test_equal_size_holes_tie_break_by_lowest_offset(self):
        pool = PoolAllocator(8 * ALIGNMENT)
        blocks = [pool.alloc(ALIGNMENT) for _ in range(8)]
        pool.free(blocks[1])
        pool.free(blocks[5])           # two equal 1-granule holes
        assert pool.alloc(ALIGNMENT).offset == 1 * ALIGNMENT
        assert pool.alloc(ALIGNMENT).offset == 5 * ALIGNMENT

    def test_largest_free_block_tracks_alloc_and_free(self):
        pool = PoolAllocator(16 * ALIGNMENT)
        assert pool.largest_free_block == 16 * ALIGNMENT
        a = pool.alloc(4 * ALIGNMENT)
        assert pool.largest_free_block == 12 * ALIGNMENT
        b = pool.alloc(12 * ALIGNMENT)
        assert pool.largest_free_block == 0
        assert not pool.can_fit(1)
        pool.free(a)
        assert pool.largest_free_block == 4 * ALIGNMENT
        pool.free(b)
        assert pool.largest_free_block == 16 * ALIGNMENT

    def test_index_survives_interleaved_stress(self):
        pool = PoolAllocator(1 << 18)
        import random

        rng = random.Random(3)
        live = []
        for step in range(600):
            if live and (rng.random() < 0.45 or not pool.can_fit(4096)):
                pool.free(live.pop(rng.randrange(len(live))))
            else:
                live.append(pool.alloc(rng.choice((256, 1024, 4096))))
            if step % 50 == 0:
                pool.check_invariants()
        pool.check_invariants()


class TestStats:
    def test_counters(self):
        pool = PoolAllocator(1 << 20)
        a = pool.alloc(10)
        pool.alloc(10)
        pool.free(a)
        assert pool.stats["allocs"] == 2
        assert pool.stats["frees"] == 1

    def test_fragmentation_zero_when_contiguous(self):
        pool = PoolAllocator(1 << 20)
        pool.alloc(1000)
        assert pool.fragmentation == 0.0


@settings(max_examples=60, deadline=None)
@given(st.lists(
    st.one_of(
        st.tuples(st.just("alloc"), st.integers(min_value=0, max_value=8192)),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=30)),
    ),
    max_size=60,
))
def test_property_pool_invariants_under_random_workload(operations):
    """Random alloc/free sequences never corrupt the block structure."""
    pool = PoolAllocator(1 << 16)
    live = []
    for op, value in operations:
        if op == "alloc":
            try:
                live.append(pool.alloc(value))
            except OutOfMemoryError:
                pass
        elif live:
            block = live.pop(value % len(live))
            pool.free(block)
        pool.check_invariants()
        assert 0 <= pool.live_bytes <= pool.capacity
        assert pool.live_bytes == sum(b.size for b in live)
    for block in live:
        pool.free(block)
    pool.check_invariants()
    assert pool.live_bytes == 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=20))
def test_property_freeing_everything_restores_full_capacity(sizes):
    pool = PoolAllocator(1 << 17)
    blocks = []
    for size in sizes:
        try:
            blocks.append(pool.alloc(size))
        except OutOfMemoryError:
            break
    for block in blocks:
        pool.free(block)
    assert pool.alloc(pool.capacity).size == pool.capacity


def _pool_state(pool):
    """Everything ``charge`` must leave as ``alloc`` then ``free`` would."""
    return (pool.capacity, dict(pool._free), list(pool._free_offsets),
            list(pool._free_by_size), dict(pool._live), pool.stats)


#: Block sizes in whole granules, so holes often tie or nearly fit:
#: small ones fill the 64-granule pool, any size may be charged (past
#: 64 it is out of memory).
_small = st.integers(min_value=0, max_value=12).map(lambda g: g * ALIGNMENT)
_any = st.integers(min_value=0, max_value=66).map(lambda g: g * ALIGNMENT)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["best_fit", "first_fit"]),
    st.lists(_small, max_size=16),
    st.sets(st.integers(min_value=0, max_value=15)),
    st.lists(st.one_of(
        st.tuples(st.just("alloc"), _small),
        st.tuples(st.just("free"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("shrink"), st.integers(min_value=1, max_value=1000)),
        st.tuples(st.just("charge"), _small | _any),
    ), max_size=40),
)
def test_property_charge_is_alloc_read_free(strategy, fill, holes, operations):
    """``charge(n)`` reads and leaves the pool as alloc, read, free does.

    Two pools run the same history: ``fill`` packs blocks from offset 0
    and the ``holes`` among them are freed, then random ``operations``
    follow.  At each ``charge`` step one pool charges while its twin
    allocates, reads ``live_bytes`` and ``fragmentation``, and frees.
    The reads, the out-of-memory outcome and the whole allocator state
    (free index, live map, peak, counts) must agree.
    """
    charged = PoolAllocator(1 << 14, strategy)
    placed = PoolAllocator(1 << 14, strategy)
    live = []
    operations = [("alloc", size) for size in fill] \
        + [("free", index) for index in sorted(holes, reverse=True)
           if index < len(fill)] + operations
    for op, value in operations:
        if op == "alloc":
            try:
                block = charged.alloc(value)
            except OutOfMemoryError:
                with pytest.raises(OutOfMemoryError):
                    placed.alloc(value)
            else:
                live.append((block, placed.alloc(value)))
        elif op == "free":
            if live:
                for pool, block in zip((charged, placed),
                                       live.pop(value % len(live))):
                    pool.free(block)
        elif op == "shrink":
            target = max(1, charged.capacity * value // 1000)
            for pool, index in ((charged, 0), (placed, 1)):
                doomed = {id(b) for b in pool.blockers_above(target)}
                for pair in live:
                    if id(pair[index]) in doomed:
                        pool.free(pair[index])
                pool.shrink(target)
            live = [pair for pair in live if not pair[0].freed]
        else:
            try:
                block = placed.alloc(value)
            except OutOfMemoryError:
                with pytest.raises(OutOfMemoryError):
                    charged.charge(value)
            else:
                expected = (placed.live_bytes, placed.fragmentation)
                placed.free(block)
                assert charged.charge(value) == expected
        assert _pool_state(charged) == _pool_state(placed)
    charged.check_invariants()
