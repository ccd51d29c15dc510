"""Property-based tests on the DDIO cache model's invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.host.cache import CPU_OWNER, DDIO_OWNER, WayPartitionedCache

LINE = 64


def ops_strategy():
    """A random mixed access trace: (is_dma, line_index)."""
    return st.lists(
        st.tuples(st.booleans(), st.integers(0, 255)), min_size=1, max_size=300
    )


def geometry():
    return st.tuples(
        st.integers(1, 8),   # sets
        st.integers(1, 8),   # ways
    ).flatmap(
        lambda sw: st.tuples(st.just(sw[0]), st.just(sw[1]), st.integers(0, sw[1]))
    )


@st.composite
def range_trace(draw):
    """A geometry, a CPU fill policy, and a trace of range ops
    ``(is_dma, byte address, n_lines)``. A run may be longer than the set
    count, so it can revisit a set within one call."""
    sets, ways, ddio_ways = draw(geometry())
    allocate = draw(st.booleans())
    ops = draw(st.lists(
        st.tuples(st.booleans(), st.integers(0, 255 * LINE),
                  st.integers(0, 2 * sets + 1)),
        min_size=1, max_size=60,
    ))
    return (sets, ways, ddio_ways, allocate), ops


class TestStructuralInvariants:
    @given(geom=geometry(), ops=ops_strategy())
    @settings(max_examples=200)
    def test_capacity_and_ddio_cap_never_violated(self, geom, ops):
        sets, ways, ddio_ways = geom
        cache = WayPartitionedCache(sets=sets, ways=ways, ddio_ways=ddio_ways, line_bytes=LINE)
        for is_dma, idx in ops:
            addr = idx * LINE
            if is_dma:
                cache.dma_write(addr)
            else:
                cache.cpu_read(addr)
            for i, s in enumerate(cache._lines):
                assert len(s) <= ways
                ddio_count = sum(1 for o in s.values() if o == DDIO_OWNER)
                assert ddio_count <= ddio_ways
                assert cache._ddio[i] == ddio_count
                assert cache._newest[i] == (next(reversed(s)) if s else None)
        assert cache.resident_lines() <= sets * ways

    @given(geom=geometry(), ops=ops_strategy())
    @settings(max_examples=100)
    def test_stats_are_consistent(self, geom, ops):
        sets, ways, ddio_ways = geom
        cache = WayPartitionedCache(sets=sets, ways=ways, ddio_ways=ddio_ways, line_bytes=LINE)
        dma_ops = cpu_ops = 0
        for is_dma, idx in ops:
            addr = idx * LINE
            if is_dma:
                cache.dma_write(addr)
                dma_ops += 1
            else:
                cache.cpu_read(addr)
                cpu_ops += 1
        s = cache.stats
        assert s["dma_hits"] + s["dma_fills"] == dma_ops
        assert s["cpu_hits"] + s["cpu_misses"] == cpu_ops
        assert 0 <= cache.cpu_miss_rate() <= 1

    @given(ops=ops_strategy())
    @settings(max_examples=100)
    def test_read_immediately_after_dma_write_hits(self, ops):
        cache = WayPartitionedCache(sets=4, ways=4, ddio_ways=2, line_bytes=LINE)
        for is_dma, idx in ops:
            addr = idx * LINE
            if is_dma:
                cache.dma_write(addr)
                assert cache.cpu_read(addr) == 1  # DDIO made it resident
            else:
                cache.cpu_read(addr)

    @given(ops=ops_strategy())
    @settings(max_examples=100)
    def test_no_allocate_mode_never_installs_cpu_lines(self, ops):
        cache = WayPartitionedCache(
            sets=4, ways=4, ddio_ways=2, line_bytes=LINE, cpu_fills_allocate=False
        )
        for is_dma, idx in ops:
            addr = idx * LINE
            if is_dma:
                cache.dma_write(addr)
            else:
                cache.cpu_read(addr)
            for s in cache._lines:
                assert all(o == DDIO_OWNER for o in s.values())

    @given(n_lines=st.integers(1, 64))
    def test_working_set_within_ddio_always_hits_steady_state(self, n_lines):
        """Fundamental DDIO property: a cyclic DMA/read working set that
        fits the DDIO slice never misses after warmup."""
        cache = WayPartitionedCache(sets=16, ways=4, ddio_ways=2, line_bytes=LINE)
        addrs = [i * LINE for i in range(min(n_lines, 32))]  # slice = 32 lines
        for a in addrs:  # warm
            cache.dma_write(a)
        cache.reset_stats()
        for _round in range(3):
            for a in addrs:
                cache.dma_write(a)
            for a in addrs:
                cache.cpu_read(a)
        assert cache.cpu_miss_rate() == 0.0


class TestRangeOps:
    @given(trace=range_trace())
    @settings(max_examples=200)
    def test_range_call_equals_single_line_calls(self, trace):
        """One call over ``n`` lines leaves the cache exactly as ``n``
        single-line calls on consecutive lines do, and counts the same hits."""
        (sets, ways, ddio_ways, allocate), ops = trace
        ranged, single = (
            WayPartitionedCache(sets=sets, ways=ways, ddio_ways=ddio_ways,
                                line_bytes=LINE, cpu_fills_allocate=allocate)
            for _ in range(2)
        )
        for is_dma, addr, n in ops:
            if is_dma:
                got = ranged.dma_write(addr, n)
                want = sum(single.dma_write(addr + k * LINE) for k in range(n))
            else:
                got = ranged.cpu_read(addr, n)
                want = sum(single.cpu_read(addr + k * LINE) for k in range(n))
            assert got == want
            assert ranged.stats == single.stats
            assert ([list(s.items()) for s in ranged._lines]
                    == [list(s.items()) for s in single._lines])
