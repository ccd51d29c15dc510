"""Fixed-function offload NIC — §3's cautionary strawman.

It ships with a small exact-match header filter table (like the flow
director blocks of the Intel NICs the paper cites) and nothing else. Table
*contents* update quickly over MMIO; the *feature set* cannot change without
new silicon, which :meth:`load_program` models by refusing — E10 counts
those refusals against a year of netfilter/sched churn.
"""

from __future__ import annotations

from typing import List

from ..errors import NicResourceExhausted, ReconfigurationUnsupported, UnsupportedOperation
from ..net.packet import Packet
from ..net.switch import MatchAction
from .base import BasicNic

FILTER_TABLE_ENTRIES = 32
SUPPORTED_ACTIONS = ("drop", "allow")


class FixedFunctionNic(BasicNic):
    """BasicNic + a bounded, header-only drop/allow table."""

    def __init__(self, *args: object, table_entries: int = FILTER_TABLE_ENTRIES, **kwargs: object):
        super().__init__(*args, **kwargs)  # type: ignore[arg-type]
        self.table_entries = table_entries
        self._filters: List[MatchAction] = []

    # --- the one thing it can do -------------------------------------------

    def install_filter(self, rule: MatchAction) -> None:
        """Insert a header-match rule (costs one MMIO table update)."""
        if rule.action not in SUPPORTED_ACTIONS:
            raise UnsupportedOperation(
                f"fixed-function table supports only {SUPPORTED_ACTIONS}, "
                f"not {rule.action!r}"
            )
        if len(self._filters) >= self.table_entries:
            raise NicResourceExhausted(
                f"filter table full ({self.table_entries} entries)"
            )
        self._filters.append(rule)

    def remove_filter(self, rule: MatchAction) -> None:
        self._filters.remove(rule)

    def rx_from_wire(self, pkt: Packet) -> None:
        for rule in self._filters:
            if rule.matches(pkt):
                if rule.action == "drop":
                    self.metrics.counter("hw_filter_drops").inc()
                    return
                break
        super().rx_from_wire(pkt)

    # --- the many things it cannot ---------------------------------------------

    def load_program(self, _program: object) -> None:
        """No programmable element: behaviour changes require new hardware
        — 'timescales measured in years' (§3)."""
        raise ReconfigurationUnsupported(
            "fixed-function NIC cannot load programs; new policy types "
            "require a hardware revision"
        )

    def install_owner_filter(self, **_kwargs: object) -> None:
        raise UnsupportedOperation(
            "fixed-function filter table matches headers only; owner "
            "matching needs kernel-resolved per-connection state"
        )

    def set_scheduler(self, _qdisc: object) -> None:
        raise ReconfigurationUnsupported(
            "fixed-function NIC has no programmable scheduler"
        )
