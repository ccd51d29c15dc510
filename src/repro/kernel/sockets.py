"""Kernel sockets and the port table.

Message-oriented sockets (enough for every experiment): bind, connect,
send/recv of sized messages. Each socket is attributed to its owning
process, which is what gives the kernel path its process view.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import AddressInUse, KernelError, PermissionDenied
from ..net.addresses import IPv4Address
from ..net.headers import PROTO_TCP, PROTO_UDP
from ..net.packet import UdpTemplate
from .process import Process

EPHEMERAL_BASE = 49_152
PRIVILEGED_MAX = 1_023

RxMessage = Tuple[int, IPv4Address, int]  # (payload_len, src_ip, sport)


class KernelSocket:
    """One bound socket: owner process, protocol, local port, optional peer."""

    #: The headers of the last UDP datagram shape sent, set at the first
    #: send (see :class:`~repro.net.packet.UdpTemplate`).
    udp_template: Optional[UdpTemplate] = None

    def __init__(self, owner: Process, proto: int, port: int):
        self.owner = owner
        self.proto = proto
        self.port = port
        self.peer: Optional[Tuple[IPv4Address, int]] = None
        self.rx_queue: Deque[RxMessage] = deque()
        self.rx_bytes = 0
        self.tx_bytes = 0
        # Copy accounting (E13): payload bytes that crossed the user/kernel
        # boundary by copy vs. bytes a zero-copy mode avoided copying.
        self.tx_copied_bytes = 0
        self.tx_elided_bytes = 0
        self.rx_copied_bytes = 0
        self.rx_elided_bytes = 0
        self.closed = False

    def connect(self, ip: IPv4Address, port: int) -> None:
        self.peer = (ip, port)

    @property
    def state(self) -> str:
        if self.closed:
            return "CLOSED"
        if self.proto == PROTO_TCP:
            return "ESTABLISHED" if self.peer else "LISTEN"
        return "UNCONN" if not self.peer else "CONNECTED"

    def __repr__(self) -> str:
        proto = {PROTO_TCP: "tcp", PROTO_UDP: "udp"}.get(self.proto, str(self.proto))
        return f"<KernelSocket {proto}:{self.port} pid={self.owner.pid} {self.state}>"


class SocketTable:
    """Port allocation with conflict detection and privilege checks."""

    def __init__(self) -> None:
        self._bound: Dict[Tuple[int, int], KernelSocket] = {}
        self._next_ephemeral: Dict[int, int] = {PROTO_TCP: EPHEMERAL_BASE, PROTO_UDP: EPHEMERAL_BASE}

    def bind(self, proc: Process, proto: int, port: int) -> KernelSocket:
        if proto not in (PROTO_TCP, PROTO_UDP):
            raise KernelError(f"unsupported protocol: {proto}")
        if not 1 <= port <= 0xFFFF:
            raise KernelError(f"port out of range: {port}")
        if port <= PRIVILEGED_MAX and not proc.user.is_root:
            raise PermissionDenied(
                f"uid {proc.uid} cannot bind privileged port {port}"
            )
        key = (proto, port)
        if key in self._bound and not self._bound[key].closed:
            raise AddressInUse(f"port {port}/{proto} already bound")
        sock = KernelSocket(owner=proc, proto=proto, port=port)
        self._bound[key] = sock
        return sock

    def bind_ephemeral(self, proc: Process, proto: int) -> KernelSocket:
        """Allocate the next free ephemeral port."""
        start = self._next_ephemeral.get(proto, EPHEMERAL_BASE)
        for offset in range(0xFFFF - EPHEMERAL_BASE + 1):
            port = EPHEMERAL_BASE + (start - EPHEMERAL_BASE + offset) % (0x10000 - EPHEMERAL_BASE)
            key = (proto, port)
            if key not in self._bound or self._bound[key].closed:
                self._next_ephemeral[proto] = port + 1
                return self.bind(proc, proto, port)
        raise AddressInUse("ephemeral port space exhausted")

    def lookup(self, proto: int, port: int) -> Optional[KernelSocket]:
        sock = self._bound.get((proto, port))
        if sock is not None and sock.closed:
            return None
        return sock

    def close(self, sock: KernelSocket) -> None:
        if sock.closed:
            raise KernelError(f"socket already closed: {sock!r}")
        sock.closed = True
        del self._bound[(sock.proto, sock.port)]

    def sockets(self) -> List[KernelSocket]:
        """All live sockets, ordered by (proto, port) — netstat's raw data."""
        return sorted(
            (s for s in self._bound.values() if not s.closed),
            key=lambda s: (s.proto, s.port),
        )

    def sockets_of(self, pid: int) -> List[KernelSocket]:
        return [s for s in self.sockets() if s.owner.pid == pid]
