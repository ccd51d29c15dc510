"""Host DRAM and pinned-region allocation.

The control plane pins per-connection ring buffers here (§4.3: "allocates
(and pins) memory for a pair of per-connection ring-buffers"). The allocator
is a simple bump allocator over a fixed physical space; what matters to the
experiments is the *addresses* (they index the LLC model) and the accounting
(pinned bytes per owner).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .. import units
from ..errors import ConfigError, SimulationError


@dataclass(frozen=True)
class PinnedRegion:
    """A pinned, physically contiguous buffer."""

    base: int
    size: int
    owner: str
    name: str

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class MemorySystem:
    """Physical memory with pinned-region bookkeeping."""

    def __init__(self, total_bytes: int = 256 * units.GB, align: int = units.CACHE_LINE):
        if total_bytes <= 0:
            raise ConfigError(f"memory size must be positive, got {total_bytes}")
        self.total_bytes = total_bytes
        self.align = align
        self._next = 0
        self._regions: List[PinnedRegion] = []
        self._freed_bytes = 0

    def alloc_pinned(self, size: int, owner: str, name: str = "") -> PinnedRegion:
        """Pin ``size`` bytes for ``owner``; raises when physical memory is
        exhausted (pinned memory is never swappable)."""
        if size <= 0:
            raise SimulationError(f"allocation size must be positive, got {size}")
        aligned = -(-size // self.align) * self.align
        if self._next + aligned > self.total_bytes:
            raise SimulationError(
                f"out of pinned memory: {units.fmt_size(self._next)} in use, "
                f"requested {units.fmt_size(aligned)}"
            )
        region = PinnedRegion(base=self._next, size=aligned, owner=owner, name=name)
        self._next += aligned
        self._regions.append(region)
        return region

    def free(self, region: PinnedRegion) -> None:
        """Unpin a region. Space is accounted but not reused (bump allocator);
        at simulation scale fragmentation is irrelevant, accounting is not."""
        if region not in self._regions:
            raise SimulationError(f"double free or foreign region: {region}")
        self._regions.remove(region)
        self._freed_bytes += region.size

    @property
    def pinned_bytes(self) -> int:
        return sum(r.size for r in self._regions)

    def pinned_by_owner(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for r in self._regions:
            out[r.owner] = out.get(r.owner, 0) + r.size
        return out
