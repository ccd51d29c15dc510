"""Kernel On-Path Interposition — the paper's contribution.

Norman (§4) in full: the in-kernel control plane
(:mod:`~repro.core.control_plane`), the Norman userspace library
(:mod:`~repro.core.library`), and the on-SmartNIC interposition dataplane
(:mod:`~repro.core.nic_dataplane`), assembled by :class:`NormanOS`
(:mod:`~repro.core.norman`), which implements the same
:class:`~repro.dataplanes.base.Dataplane` interface as the baselines.

Packets flow app ↔ per-connection rings ↔ SmartNIC ↔ wire without touching
the software kernel; the kernel configures the NIC (filters, scheduler,
capture sessions on the NIC's :class:`~repro.net.capture.Sniffer`,
steering) and monitors notification queues to wake blocked threads.
"""

from .capabilities import SCENARIOS, capability_matrix, render_matrix
from .connection import CONN_MODE_PER_CONN, CONN_MODE_SHARED, NormanConnection
from .conntrack import ConntrackTable, NatTable
from .control_plane import ControlPlane
from .library import NormanEndpoint
from .nic_dataplane import KOPI_BITSTREAM, KopiNic
from .norman import NormanOS

__all__ = [
    "CONN_MODE_PER_CONN",
    "CONN_MODE_SHARED",
    "ConntrackTable",
    "ControlPlane",
    "KOPI_BITSTREAM",
    "KopiNic",
    "NatTable",
    "NormanConnection",
    "NormanEndpoint",
    "NormanOS",
    "SCENARIOS",
    "capability_matrix",
    "render_matrix",
]
