"""DDIO-partitioned LLC model: structural and analytic."""

import pytest

from repro.config import DEFAULT_COSTS
from repro.errors import ConfigError
from repro.host import AnalyticDdioModel, WayPartitionedCache

LINE = 64


def small_cache(sets=16, ways=4, ddio_ways=2):
    return WayPartitionedCache(sets=sets, ways=ways, ddio_ways=ddio_ways, line_bytes=LINE)


def addr(set_idx, tag, sets=16):
    """Byte address mapping to a given set with a distinct tag."""
    return (tag * sets + set_idx) * LINE


class TestGeometry:
    def test_capacity(self):
        c = small_cache()
        assert c.capacity_bytes == 16 * 4 * LINE
        assert c.ddio_capacity_bytes == 16 * 2 * LINE

    def test_from_costs_matches_model(self):
        c = WayPartitionedCache.from_costs(DEFAULT_COSTS)
        assert c.capacity_bytes == DEFAULT_COSTS.llc_size_bytes
        assert c.ddio_capacity_bytes == DEFAULT_COSTS.ddio_capacity_bytes

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ConfigError):
            WayPartitionedCache(sets=0, ways=4, ddio_ways=1)
        with pytest.raises(ConfigError):
            WayPartitionedCache(sets=4, ways=4, ddio_ways=5)
        with pytest.raises(ConfigError):
            WayPartitionedCache(sets=4, ways=4, ddio_ways=1, line_bytes=48)


class TestDmaAllocation:
    def test_dma_fill_then_cpu_hit(self):
        c = small_cache()
        assert c.dma_write(addr(0, 0)) == 0  # fill
        assert c.cpu_read(addr(0, 0)) == 1  # DDIO made it LLC-resident
        assert c.stats["cpu_hits"] == 1

    def test_dma_write_hit_updates_in_place(self):
        c = small_cache()
        c.dma_write(addr(0, 0))
        assert c.dma_write(addr(0, 0)) == 1
        assert c.stats["dma_hits"] == 1

    def test_dma_capped_at_ddio_ways_per_set(self):
        c = small_cache(ddio_ways=2)
        c.dma_write(addr(0, 0))
        c.dma_write(addr(0, 1))
        c.dma_write(addr(0, 2))  # third DMA line in one set -> evicts oldest
        assert c.stats["ddio_evictions"] == 1
        assert c.cpu_read(addr(0, 0)) == 0  # tag 0 was evicted
        assert c.cpu_read(addr(0, 2)) == 1

    def test_dma_does_not_evict_cpu_lines_while_under_cap(self):
        c = small_cache(ways=4, ddio_ways=2)
        c.cpu_read(addr(0, 10))  # miss-fill a CPU line
        c.dma_write(addr(0, 0))
        c.dma_write(addr(0, 1))
        c.dma_write(addr(0, 2))  # evicts a DDIO line, not the CPU line
        assert c.cpu_read(addr(0, 10)) == 1


class TestCpuPath:
    def test_cpu_lru_eviction_when_set_full(self):
        c = small_cache(ways=2, ddio_ways=1)
        c.cpu_read(addr(0, 0))
        c.cpu_read(addr(0, 1))
        c.cpu_read(addr(0, 2))  # set full -> evict tag 0
        assert c.stats["cpu_evictions"] >= 1
        assert c.cpu_read(addr(0, 0)) == 0

    def test_read_refreshes_lru(self):
        c = small_cache(ways=2, ddio_ways=1)
        c.cpu_read(addr(0, 0))
        c.cpu_read(addr(0, 1))
        c.cpu_read(addr(0, 0))  # refresh tag 0
        c.cpu_read(addr(0, 2))  # should evict tag 1, not 0
        assert c.cpu_read(addr(0, 0)) == 1

    def test_miss_rate(self):
        c = small_cache()
        c.cpu_read(addr(0, 0))  # miss
        c.cpu_read(addr(0, 0))  # hit
        assert c.cpu_miss_rate() == 0.5


class TestDdioThrashing:
    """The §5 mechanism in miniature: working set <= DDIO slice -> all hits;
    working set > DDIO slice -> reads start missing."""

    def _run_working_set(self, n_lines, rounds=4):
        c = small_cache(sets=8, ways=4, ddio_ways=2)  # DDIO slice = 16 lines
        addrs = [i * LINE for i in range(n_lines)]
        c.reset_stats()
        for _ in range(rounds):
            # NIC delivers a batch across all connections, *then* the app
            # drains it — reuse distance grows with the working set.
            for a in addrs:
                c.dma_write(a)
            for a in addrs:
                c.cpu_read(a)
        return c

    def test_fitting_working_set_all_hits(self):
        c = self._run_working_set(n_lines=16)
        assert c.cpu_miss_rate() == 0.0

    def test_oversized_working_set_misses(self):
        c = self._run_working_set(n_lines=64)
        assert c.cpu_miss_rate() > 0.3

    def test_miss_rate_monotone_in_working_set(self):
        rates = [self._run_working_set(n).cpu_miss_rate() for n in (16, 32, 64, 128)]
        assert rates == sorted(rates)

    def test_reset_stats(self):
        c = self._run_working_set(64)
        c.reset_stats()
        assert sum(c.stats.values()) == 0


class TestAnalyticModel:
    def test_hit_rate_saturates_at_one(self):
        m = AnalyticDdioModel(DEFAULT_COSTS)
        assert m.hit_rate(0) == 1.0
        assert m.hit_rate(DEFAULT_COSTS.ddio_capacity_bytes) == 1.0

    def test_hit_rate_decays(self):
        m = AnalyticDdioModel(DEFAULT_COSTS)
        cap = DEFAULT_COSTS.ddio_capacity_bytes
        assert m.hit_rate(2 * cap) == pytest.approx(0.5)
        assert m.hit_rate(4 * cap) == pytest.approx(0.25)

    def test_read_cost_between_hit_and_dram(self):
        m = AnalyticDdioModel(DEFAULT_COSTS)
        cost_hit = m.read_cost_ns(1, lines=10)
        cost_miss = m.read_cost_ns(10**12, lines=10)
        assert cost_hit == 10 * DEFAULT_COSTS.llc_hit_ns
        assert cost_miss == pytest.approx(10 * DEFAULT_COSTS.dram_ns, rel=0.01)
        mid = m.read_cost_ns(2 * DEFAULT_COSTS.ddio_capacity_bytes, lines=10)
        assert cost_hit < mid < cost_miss
