"""Last-level cache with DDIO way partitioning.

Intel Data Direct I/O lets inbound DMA allocate directly into the LLC — but
only into a fixed subset of ways (2 of 11 by default). The paper's §5
hypothesis is that once the aggregate working set of active per-connection
ring buffers outgrows that DDIO slice, DMA writes start evicting each other,
application reads miss to DRAM, per-packet cost rises, and throughput
collapses — observed past ~1024 concurrent connections.

Two models of the same mechanism live here:

* :class:`WayPartitionedCache` — a structural set-associative LRU cache where
  DMA-allocated lines are capped at ``ddio_ways`` per set. Used by the E8
  benchmark.
* :class:`AnalyticDdioModel` — a closed-form approximation (random-ish access
  within the working set) used for quick examples and cross-checked against
  the structural model by tests.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..config import CostModel
from ..errors import ConfigError

DDIO_OWNER = "ddio"
CPU_OWNER = "cpu"


class WayPartitionedCache:
    """Set-associative LRU cache with a per-set cap on DMA-owned lines.

    Addresses are byte addresses; lines are ``line_bytes`` wide; the set
    index is the usual ``(addr // line) % sets``. Each set is a plain dict
    ``tag -> owner`` in LRU order (oldest first); a dict holding only ints
    and strings is never tracked by the cyclic garbage collector, so the
    tens of thousands of sets cost a full collection nothing. Two per-set
    side tables keep the hot path O(1): the count of DDIO-owned lines (the
    DDIO cap check) and the newest tag (a hit on the newest line needs no
    re-insertion, which is the common case: a DMA write or a read of the
    line just written).
    """

    def __init__(
        self,
        sets: int,
        ways: int,
        ddio_ways: int,
        line_bytes: int = 64,
        cpu_fills_allocate: bool = True,
    ):
        if sets < 1 or ways < 1:
            raise ConfigError(f"invalid geometry: sets={sets} ways={ways}")
        if not 0 <= ddio_ways <= ways:
            raise ConfigError(f"ddio_ways={ddio_ways} out of range for {ways} ways")
        if line_bytes < 1 or line_bytes & (line_bytes - 1):
            raise ConfigError(f"line size must be a power of two, got {line_bytes}")
        self.sets = sets
        self.ways = ways
        self.ddio_ways = ddio_ways
        self.line_bytes = line_bytes
        self.cpu_fills_allocate = cpu_fills_allocate
        """When False, CPU read misses do not install the line (non-temporal
        reads). This models a *loaded* server whose application working set
        already owns the CPU ways of the LLC: DMA-delivered ring data then
        survives in cache only inside the DDIO slice, which is the regime
        the paper's §5 scaling cliff lives in. E8 runs in this mode."""
        self._lines: List[Dict[int, str]] = [{} for _ in range(sets)]
        self._ddio: List[int] = [0] * sets  # DDIO-owned lines per set
        self._newest: List[Optional[int]] = [None] * sets  # MRU tag per set
        self.stats: Dict[str, int] = {
            "cpu_hits": 0,
            "cpu_misses": 0,
            "dma_hits": 0,
            "dma_fills": 0,
            "ddio_evictions": 0,
            "cpu_evictions": 0,
        }

    @classmethod
    def from_costs(cls, costs: CostModel) -> "WayPartitionedCache":
        return cls(
            sets=costs.llc_sets,
            ways=costs.llc_ways,
            ddio_ways=costs.ddio_ways,
            line_bytes=costs.cache_line_bytes,
        )

    # --- geometry ----------------------------------------------------------

    @property
    def capacity_bytes(self) -> int:
        return self.sets * self.ways * self.line_bytes

    @property
    def ddio_capacity_bytes(self) -> int:
        return self.sets * self.ddio_ways * self.line_bytes

    # --- operations ---------------------------------------------------------

    def dma_write(self, addr: int, lines: int = 1) -> int:
        """NIC DMA writes ``lines`` consecutive lines, starting at ``addr``'s
        line, in order. Returns how many hit: a hit is updated in place
        (keeps its owner, becomes MRU). A miss is a DDIO allocation
        (possibly evicting) — or, when DDIO is disabled entirely
        (``ddio_ways == 0``), a write straight to DRAM that installs
        nothing."""
        tag = addr // self.line_bytes
        end = tag + lines
        hits = 0
        while tag < end:
            i = tag % self.sets
            lru = self._lines[i]
            if tag in lru:
                if self._newest[i] != tag:
                    lru[tag] = lru.pop(tag)
                    self._newest[i] = tag
                hits += 1
            elif self.ddio_ways:
                if self._ddio[i] < self.ddio_ways:
                    if len(lru) >= self.ways:
                        self._evict(lru, i, None)
                    self._ddio[i] += 1
                else:
                    # At the DDIO cap the fill replaces a DDIO line, so the
                    # set's DDIO count stays. The victim is the set's oldest
                    # line whenever that one is DDIO-owned (always, when CPU
                    # reads do not allocate).
                    oldest = next(iter(lru))
                    if lru[oldest] == DDIO_OWNER:
                        del lru[oldest]
                        self.stats["ddio_evictions"] += 1
                    else:
                        self._evict(lru, i, DDIO_OWNER)
                        self._ddio[i] += 1
                lru[tag] = DDIO_OWNER
                self._newest[i] = tag
            tag += 1
        if hits:
            self.stats["dma_hits"] += hits
        if lines > hits:
            self.stats["dma_fills"] += lines - hits
        return hits

    def cpu_read(self, addr: int, lines: int = 1) -> int:
        """CPU reads ``lines`` consecutive lines, starting at ``addr``'s
        line, in order. Returns how many hit; the rest miss to DRAM."""
        tag = addr // self.line_bytes
        end = tag + lines
        hits = 0
        while tag < end:
            i = tag % self.sets
            lru = self._lines[i]
            if tag in lru:
                if self._newest[i] != tag:
                    lru[tag] = lru.pop(tag)
                    self._newest[i] = tag
                hits += 1
            elif self.cpu_fills_allocate:
                if len(lru) >= self.ways:
                    self._evict(lru, i, None)
                lru[tag] = CPU_OWNER
                self._newest[i] = tag
            tag += 1
        if hits:
            self.stats["cpu_hits"] += hits
        if lines > hits:
            self.stats["cpu_misses"] += lines - hits
        return hits

    def _evict(self, lru: Dict[int, str], i: int, owner_filter: "str | None") -> None:
        """Evict set ``i``'s oldest line owned by ``owner_filter`` (any
        owner when None)."""
        for tag, owner in lru.items():
            if owner_filter is None or owner == owner_filter:
                break
        else:
            # No line of the requested owner exists; fall back to global LRU.
            tag = next(iter(lru))
        if lru.pop(tag) == DDIO_OWNER:
            self._ddio[i] -= 1
            self.stats["ddio_evictions"] += 1
        else:
            self.stats["cpu_evictions"] += 1

    # --- reporting ------------------------------------------------------------

    def cpu_miss_rate(self) -> float:
        total = self.stats["cpu_hits"] + self.stats["cpu_misses"]
        return self.stats["cpu_misses"] / total if total else 0.0

    def resident_lines(self) -> int:
        return sum(len(s) for s in self._lines)

    def reset_stats(self) -> None:
        for key in self.stats:
            self.stats[key] = 0


class AnalyticDdioModel:
    """Closed-form DDIO hit-rate approximation.

    For a hot working set of ``working_set_bytes`` accessed uniformly, an
    LRU-managed slice of ``ddio_capacity`` behaves approximately like random
    replacement: the probability that a line is still resident when re-read
    is ``min(1, capacity / working_set)``.
    """

    def __init__(self, costs: CostModel):
        self.costs = costs

    def hit_rate(self, working_set_bytes: int) -> float:
        if working_set_bytes <= 0:
            return 1.0
        cap = self.costs.ddio_capacity_bytes
        return min(1.0, cap / working_set_bytes)

    def read_cost_ns(self, working_set_bytes: int, lines: int) -> int:
        """Expected cost for the CPU to read ``lines`` cache lines of freshly
        DMA-written data given the active working set."""
        h = self.hit_rate(working_set_bytes)
        per_line = h * self.costs.llc_hit_ns + (1 - h) * self.costs.dram_ns
        return max(1, round(lines * per_line))
