"""Five-tuple flow identity."""

from __future__ import annotations

from operator import itemgetter

from ..errors import PacketError
from .addresses import IPv4Address

_tuple_new = tuple.__new__


class FiveTuple(tuple):
    """(proto, src ip/port, dst ip/port) — the unit of steering and NAT.

    Five-tuples key every hot dict in the dataplane (verdict cache,
    conntrack, fast-forward state), and one is built per lookup, so the
    value is a tuple of its five fields made in one call. It hashes as the
    plain tuple of those fields (``IPv4Address`` caches its own hash), is
    immutable for free, and equals only another ``FiveTuple``.
    """

    __slots__ = ()

    def __new__(cls, proto: int, src_ip: IPv4Address, sport: int,
                dst_ip: IPv4Address, dport: int) -> "FiveTuple":
        if not 0 <= proto <= 0xFF:
            raise PacketError(f"proto out of range: {proto}")
        if not 0 <= sport <= 0xFFFF:
            raise PacketError(f"sport out of range: {sport}")
        if not 0 <= dport <= 0xFFFF:
            raise PacketError(f"dport out of range: {dport}")
        return _tuple_new(cls, (proto, src_ip, sport, dst_ip, dport))

    proto = property(itemgetter(0))
    src_ip = property(itemgetter(1))
    sport = property(itemgetter(2))
    dst_ip = property(itemgetter(3))
    dport = property(itemgetter(4))

    # A plain tuple of the same fields is a different value: returning
    # NotImplemented here would let tuple's own comparison answer True.
    def __eq__(self, other: object) -> bool:
        return other.__class__ is FiveTuple and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return other.__class__ is not FiveTuple or tuple.__ne__(self, other)

    __hash__ = tuple.__hash__

    def __getnewargs__(self) -> tuple:
        """copy and pickle rebuild the value through ``__new__``."""
        return tuple(self)

    def reversed(self) -> "FiveTuple":
        """The reply direction of this flow."""
        proto, src_ip, sport, dst_ip, dport = self
        return FiveTuple(proto, dst_ip, dport, src_ip, sport)

    def __str__(self) -> str:
        proto, src_ip, sport, dst_ip, dport = self
        return f"{src_ip}:{sport} -> {dst_ip}:{dport} proto={proto}"

    def __repr__(self) -> str:
        proto, src_ip, sport, dst_ip, dport = self
        return (f"FiveTuple(proto={proto!r}, src_ip={src_ip!r}, sport={sport!r}, "
                f"dst_ip={dst_ip!r}, dport={dport!r})")
