"""Norman connection state.

One :class:`NormanConnection` per application connection: the ring pair
(§4.3), the on-NIC SRAM block holding its steering/conntrack entry, and the
owner identity the kernel recorded at setup time — which is what lets the
NIC enforce owner policies it could never infer from packet bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..kernel.process import Process
from ..kernel.sockets import KernelSocket
from ..nic.rings import RingPair
from ..nic.smartnic.sram import SramBlock

CONN_MODE_PER_CONN = "per-connection"
CONN_MODE_SHARED = "shared-rings"


@dataclass
class NormanConnection:
    """Control-plane record for one connection."""

    conn_id: int
    proc: Process
    sock: KernelSocket
    rings: RingPair
    mode: str = CONN_MODE_PER_CONN
    sram: Optional[SramBlock] = None
    fallback: bool = False
    """True when NIC resources were exhausted and this connection runs on
    the software (kernel) path instead — §5's escape hatch, measured by E9."""

    closed: bool = False
    rx_packets: int = field(default=0)
    tx_packets: int = field(default=0)

    fluid_rx: list = field(default_factory=list)
    """Fast-forward receive credit: ``[n, payload_len, src_ip, sport]``
    chunks appended by fluid epoch delivery (no per-packet ring entries
    exist for absorbed packets). The library consumes these after the ring
    drains; their stage costs were already charged at epoch flush."""

    rate_bps: Optional[int] = None
    """NIC-enforced pacing rate for this connection's TX ring drain; None =
    unpaced. Set by the on-NIC congestion manager (§4.2 lists congestion
    control among the dataplane's interposition logic)."""

    @property
    def owner(self) -> "tuple[int, int, str]":
        return (self.proc.pid, self.proc.uid, self.proc.comm)

    @property
    def proto(self) -> int:
        return self.sock.proto

    @property
    def port(self) -> int:
        return self.sock.port

    def __repr__(self) -> str:
        flag = " fallback" if self.fallback else ""
        return (
            f"<NormanConnection #{self.conn_id} pid={self.proc.pid} "
            f"port={self.port}{flag}>"
        )
