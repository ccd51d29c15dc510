"""MAC and IPv4 address value types."""

from __future__ import annotations

from ..errors import AddressError


class MacAddress:
    """An immutable 48-bit Ethernet address."""

    __slots__ = ("_value",)

    def __init__(self, value: int):
        if not 0 <= value < 1 << 48:
            raise AddressError(f"MAC out of range: {value:#x}")
        object.__setattr__(self, "_value", value)

    def __setattr__(self, *_args: object) -> None:
        raise AttributeError("MacAddress is immutable")

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        parts = text.split(":")
        if len(parts) != 6:
            raise AddressError(f"malformed MAC: {text!r}")
        try:
            octets = [int(p, 16) for p in parts]
        except ValueError as exc:
            raise AddressError(f"malformed MAC: {text!r}") from exc
        if any(not 0 <= o <= 0xFF for o in octets):
            raise AddressError(f"malformed MAC: {text!r}")
        value = 0
        for o in octets:
            value = (value << 8) | o
        return cls(value)

    @classmethod
    def from_index(cls, idx: int, oui: int = 0x02_00_00) -> "MacAddress":
        """Locally-administered MAC ``02:00:00:xx:xx:xx`` for host ``idx``."""
        if not 0 <= idx < 1 << 24:
            raise AddressError(f"MAC index out of range: {idx}")
        return cls((oui << 24) | idx)

    @property
    def value(self) -> int:
        return self._value

    @property
    def is_broadcast(self) -> bool:
        return self._value == (1 << 48) - 1

    @property
    def is_multicast(self) -> bool:
        return bool((self._value >> 40) & 0x01)

    def to_bytes(self) -> bytes:
        return self._value.to_bytes(6, "big")

    def __str__(self) -> str:
        return ":".join(f"{b:02x}" for b in self.to_bytes())

    def __repr__(self) -> str:
        return f"MacAddress({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MacAddress) and other._value == self._value

    def __hash__(self) -> int:
        return hash(("mac", self._value))


BROADCAST_MAC = MacAddress((1 << 48) - 1)


class IPv4Address:
    """An immutable 32-bit IPv4 address.

    Addresses sit inside every five-tuple, and a tuple key hashes its items
    on every dict probe, so the hash is computed once here.
    """

    __slots__ = ("_value", "_hash")

    def __init__(self, value: int):
        if not 0 <= value < 1 << 32:
            raise AddressError(f"IPv4 out of range: {value:#x}")
        object.__setattr__(self, "_value", value)
        object.__setattr__(self, "_hash", hash(("ipv4", value)))

    def __setattr__(self, *_args: object) -> None:
        raise AttributeError("IPv4Address is immutable")

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        parts = text.split(".")
        if len(parts) != 4:
            raise AddressError(f"malformed IPv4: {text!r}")
        try:
            octets = [int(p, 10) for p in parts]
        except ValueError as exc:
            raise AddressError(f"malformed IPv4: {text!r}") from exc
        if any(not 0 <= o <= 255 for o in octets):
            raise AddressError(f"malformed IPv4: {text!r}")
        value = 0
        for o in octets:
            value = (value << 8) | o
        return cls(value)

    @property
    def value(self) -> int:
        return self._value

    def to_bytes(self) -> bytes:
        return self._value.to_bytes(4, "big")

    def __str__(self) -> str:
        return ".".join(str(b) for b in self.to_bytes())

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IPv4Address) and other._value == self._value

    def __lt__(self, other: "IPv4Address") -> bool:
        return self._value < other._value

    def __hash__(self) -> int:
        return self._hash
