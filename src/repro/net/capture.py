"""Packet capture: the tap behind tcpdump on every plane that has one.

Each plane that sees all of a host's traffic (the kernel stack, the
sidecar, the hypervisor's vswitch, KOPI's NIC) owns one :class:`Sniffer`
and mirrors every packet that crosses it. The plane says whether its
captures are attributed: the kernel, the sidecar and KOPI stamp each
packet's owner, the hypervisor sees headers only. Every session keeps a
genuine pcap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from ..sim import Simulator
from .packet import Packet
from .pcap import PcapWriter

PacketFilter = Callable[[Packet], bool]


@dataclass
class CaptureSession:
    """A running tcpdump-style capture."""

    name: str
    packets: List[Packet] = field(default_factory=list)
    _detach: Optional[Callable[[], None]] = None
    attributed: bool = False
    """True when captured packets carry owner (pid/uid/comm) metadata."""

    pcap: PcapWriter = field(default_factory=PcapWriter)
    """The captured packets as a pcap file."""

    def stop(self) -> None:
        if self._detach is not None:
            self._detach()
            self._detach = None

    def summaries(self) -> List[str]:
        return [p.summary() for p in self.packets]


class Sniffer:
    """One plane's capture point. Starting or stopping a session is a
    policy commit on the plane's ``sniffer`` point; each packet mirrored
    while a session runs is one evaluation there, a hit when a session's
    filter matched it."""

    def __init__(self, sim: Simulator, attributed: bool = True):
        self.sim = sim
        self.attributed = attributed
        self._sessions: List[Tuple[Optional[PacketFilter], CaptureSession]] = []
        self.point = None  # Optional[InterpositionPoint], set at registration

    def _session_change(self) -> None:
        if self.point is not None:
            self.point.record_update()

    def start(self, match: Optional[PacketFilter] = None, name: str = "capture") -> CaptureSession:
        session = CaptureSession(name=name, attributed=self.attributed)
        entry = (match, session)
        self._sessions.append(entry)
        self._session_change()

        def _detach() -> None:
            self._sessions.remove(entry)
            self._session_change()

        session._detach = _detach
        return session

    def mirror(self, pkt: Packet) -> None:
        """Called by the plane for every packet it sees, both directions."""
        if not self._sessions:
            return
        mirrored = False
        for match, session in self._sessions:
            if match is None or match(pkt):
                session.packets.append(pkt)
                session.pcap.write(self.sim.now, pkt)
                mirrored = True
        if self.point is not None:
            self.point.record_eval(hit=mirrored)

    @property
    def active_sessions(self) -> int:
        return len(self._sessions)
