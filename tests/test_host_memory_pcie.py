"""Memory pinning, DMA MMIO costs, coherence fabric, Machine facade."""

import pytest

from repro import units
from repro.config import DEFAULT_COSTS
from repro.errors import SimulationError
from repro.host import CoherenceFabric, Machine, MemorySystem
from repro.sim import Simulator


class TestMemorySystem:
    def test_alloc_is_aligned_and_disjoint(self):
        mem = MemorySystem(total_bytes=1 * units.MB)
        a = mem.alloc_pinned(100, owner="app1")
        b = mem.alloc_pinned(100, owner="app2")
        assert a.base % 64 == 0 and b.base % 64 == 0
        assert a.end <= b.base
        assert a.size == 128  # rounded up to line

    def test_accounting_by_owner(self):
        mem = MemorySystem(total_bytes=1 * units.MB)
        mem.alloc_pinned(128, owner="alice")
        mem.alloc_pinned(256, owner="alice")
        mem.alloc_pinned(64, owner="bob")
        by_owner = mem.pinned_by_owner()
        assert by_owner == {"alice": 384, "bob": 64}
        assert mem.pinned_bytes == 448

    def test_exhaustion_raises(self):
        mem = MemorySystem(total_bytes=256)
        mem.alloc_pinned(256, owner="x")
        with pytest.raises(SimulationError):
            mem.alloc_pinned(1, owner="x")

    def test_free_and_double_free(self):
        mem = MemorySystem(total_bytes=1 * units.MB)
        r = mem.alloc_pinned(64, owner="x")
        mem.free(r)
        assert mem.pinned_bytes == 0
        with pytest.raises(SimulationError):
            mem.free(r)

    def test_contains(self):
        mem = MemorySystem(total_bytes=1 * units.MB)
        r = mem.alloc_pinned(64, owner="x")
        assert r.contains(r.base)
        assert not r.contains(r.end)


class TestDmaEngine:
    def test_mmio_costs(self):
        m = Machine(n_cores=1)
        assert m.dma.mmio_write_cost() == DEFAULT_COSTS.mmio_write_ns
        assert m.dma.mmio_read_cost() == DEFAULT_COSTS.mmio_read_ns
        assert m.dma.metrics.counter("mmio_writes").value == 1


class TestCoherenceFabric:
    def test_same_core_free(self):
        fab = CoherenceFabric(DEFAULT_COSTS)
        assert fab.transfer_cost_ns(1_500, src_core=1, dst_core=1) == 0
        assert fab.lines_moved == 0

    def test_cross_core_charges_per_line(self):
        fab = CoherenceFabric(DEFAULT_COSTS)
        cost = fab.transfer_cost_ns(1_500, src_core=0, dst_core=1)
        lines = -(-1_500 // 64)
        assert cost == lines * DEFAULT_COSTS.coherence_line_ns
        assert fab.lines_moved == lines

    def test_negative_size_rejected(self):
        with pytest.raises(SimulationError):
            CoherenceFabric(DEFAULT_COSTS).transfer_cost_ns(-1, 0, 1)


class TestMachine:
    def test_default_machine_uses_analytic_model(self):
        m = Machine()
        assert m.llc is None
        assert m.ddio_model.hit_rate(1) == 1.0

    def test_shared_simulator(self):
        sim = Simulator()
        m = Machine(sim=sim)
        assert m.sim is sim
        assert m.now == sim.now
