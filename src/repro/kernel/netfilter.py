"""netfilter-style rule chains with owner matching.

The port-partitioning scenario of §2 is exactly an iptables rule with
``-m owner --cmd-owner postgres --uid-owner bob``: a match that needs the
process view. :class:`RuleTable` evaluates chains against a packet plus the
kernel-supplied owner triple; rules that require an owner simply never match
packets whose owner is unknown — which is how off-host interposers fail.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import PolicyError
from ..net.addresses import IPv4Address
from ..net.packet import Packet
from ..sim import MetricSet

CHAIN_INPUT = "INPUT"
CHAIN_OUTPUT = "OUTPUT"
_CHAINS = (CHAIN_INPUT, CHAIN_OUTPUT)

ACCEPT = "ACCEPT"
DROP = "DROP"
_VERDICTS = (ACCEPT, DROP)

OwnerTriple = Tuple[int, int, str]  # (pid, uid, comm)


@dataclass
class NetfilterRule:
    """One rule: header matches + optional owner matches + verdict.

    ``None`` fields are wildcards. ``uid_owner``/``cmd_owner``/``pid_owner``
    require the evaluator to supply the packet's owner; without one the rule
    does not match (matching Linux semantics, where the owner module only
    matches locally-generated, socket-attributed traffic).
    """

    verdict: str
    chain: str = CHAIN_OUTPUT
    proto: Optional[int] = None
    src_ip: Optional[IPv4Address] = None
    dst_ip: Optional[IPv4Address] = None
    sport: Optional[int] = None
    dport: Optional[int] = None
    uid_owner: Optional[int] = None
    cmd_owner: Optional[str] = None
    pid_owner: Optional[int] = None
    comment: str = ""
    packets: int = field(default=0, compare=False)
    bytes: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if self.verdict not in _VERDICTS:
            raise PolicyError(f"unknown verdict: {self.verdict!r}")
        if self.chain not in _CHAINS:
            raise PolicyError(f"unknown chain: {self.chain!r}")
        # Precomputed once: matches() runs per packet per rule, and the
        # owner fields never change after construction.
        self.needs_owner: bool = (
            self.uid_owner is not None
            or self.cmd_owner is not None
            or self.pid_owner is not None
        )

    def matches(self, pkt: Packet, owner: Optional[OwnerTriple]) -> bool:
        # Header fields are read in place: a rule walk builds no flow key.
        ip = pkt.ipv4
        l4 = pkt.l4
        if ip is None or l4 is None:
            return False
        if self.proto is not None and ip.proto != self.proto:
            return False
        if self.src_ip is not None and ip.src != self.src_ip:
            return False
        if self.dst_ip is not None and ip.dst != self.dst_ip:
            return False
        if self.sport is not None and l4.sport != self.sport:
            return False
        if self.dport is not None and l4.dport != self.dport:
            return False
        if self.needs_owner:
            if owner is None:
                return False
            pid, uid, comm = owner
            if self.pid_owner is not None and pid != self.pid_owner:
                return False
            if self.uid_owner is not None and uid != self.uid_owner:
                return False
            if self.cmd_owner is not None and comm != self.cmd_owner:
                return False
        return True

    def describe(self) -> str:
        parts = [f"-A {self.chain}"]
        if self.proto is not None:
            parts.append(f"-p {self.proto}")
        if self.src_ip is not None:
            parts.append(f"-s {self.src_ip}")
        if self.dst_ip is not None:
            parts.append(f"-d {self.dst_ip}")
        if self.sport is not None:
            parts.append(f"--sport {self.sport}")
        if self.dport is not None:
            parts.append(f"--dport {self.dport}")
        if self.needs_owner:
            parts.append("-m owner")
            if self.uid_owner is not None:
                parts.append(f"--uid-owner {self.uid_owner}")
            if self.cmd_owner is not None:
                parts.append(f"--cmd-owner {self.cmd_owner}")
            if self.pid_owner is not None:
                parts.append(f"--pid-owner {self.pid_owner}")
        parts.append(f"-j {self.verdict}")
        return " ".join(parts)


class RuleTable:
    """Ordered rule chains with ACCEPT default policy and hit counters.

    Mutations are copy-on-write: each one builds the new chain list and
    swaps it in whole, so a packet evaluation that captured the old list
    runs against exactly one table version — never a half-edited chain
    (the engine's atomic-commit contract). When bound to an
    :class:`~repro.interpose.InterpositionPoint`, every mutation advances
    the point's version, whichever surface issued it (dataplane admin
    call, iptables, control plane) — tool and engine state cannot diverge.
    """

    def __init__(self, default_verdict: str = ACCEPT):
        if default_verdict not in _VERDICTS:
            raise PolicyError(f"unknown default verdict: {default_verdict!r}")
        self.default_verdict = default_verdict
        self._chains: "dict[str, List[NetfilterRule]]" = {c: [] for c in _CHAINS}
        self._chain_needs_owner: "dict[str, bool]" = {c: False for c in _CHAINS}
        self.metrics = MetricSet("netfilter")
        self.update_count = 0
        self.point = None  # Optional[InterpositionPoint], via bind_point

    def bind_point(self, point) -> None:
        self.point = point

    def needs_owner(self, chain: str) -> bool:
        """True when any rule in ``chain`` matches on the owner triple —
        only then does evaluation consult the kernel's process view."""
        if chain not in self._chains:
            raise PolicyError(f"unknown chain: {chain!r}")
        return self._chain_needs_owner[chain]

    def _committed(self) -> None:
        self.update_count += 1
        # Tables are small and mutations rare: recompute the per-chain
        # owner-match flags wholesale on every commit.
        self._chain_needs_owner = {
            c: any(r.needs_owner for r in rules) for c, rules in self._chains.items()
        }
        if self.point is not None:
            self.point.record_update()

    def append(self, rule: NetfilterRule) -> None:
        chain = self._chains[rule.chain]
        self._chains[rule.chain] = chain + [rule]
        self._committed()

    def insert(self, rule: NetfilterRule, index: int = 0) -> None:
        chain = list(self._chains[rule.chain])
        chain.insert(index, rule)
        self._chains[rule.chain] = chain
        self._committed()

    def delete(self, rule: NetfilterRule) -> None:
        chain = list(self._chains[rule.chain])
        try:
            chain.remove(rule)
        except ValueError as exc:
            raise PolicyError(f"rule not present: {rule.describe()}") from exc
        self._chains[rule.chain] = chain
        self._committed()

    def flush(self, chain: Optional[str] = None) -> None:
        chains = [chain] if chain else list(self._chains)
        for c in chains:
            if c not in self._chains:
                raise PolicyError(f"unknown chain: {c!r}")
            self._chains[c] = []
        self._committed()

    def rules(self, chain: str) -> List[NetfilterRule]:
        if chain not in self._chains:
            raise PolicyError(f"unknown chain: {chain!r}")
        return list(self._chains[chain])

    def evaluate(
        self, chain: str, pkt: Packet, owner: Optional[OwnerTriple]
    ) -> "tuple[str, int]":
        """First-match evaluation. Returns (verdict, rules_examined); the
        caller converts rules_examined into CPU or NIC time."""
        if chain not in self._chains:
            raise PolicyError(f"unknown chain: {chain!r}")
        # Snapshot the chain: copy-on-write mutations swap the whole list,
        # so this evaluation sees one version even if an update lands
        # mid-walk (the RCU read side).
        rules = self._chains[chain]
        if not rules:
            # Empty chain: default policy, nothing examined, counters as
            # the walk below would have produced.
            self.metrics.counter(f"{chain.lower()}_default").inc()
            if self.point is not None:
                version = self.point.record_eval(
                    hit=False, dropped=(self.default_verdict == DROP)
                )
                pkt.meta.notes["nf_eval"] = (chain, version, self.default_verdict, 0)
            return self.default_verdict, 0
        if owner is not None and not self._chain_needs_owner[chain]:
            # No rule in this chain matches on the owner triple: drop it so
            # rule matching never touches the process view (verdicts are
            # unchanged — owner-less rules never read it anyway).
            owner = None
        examined = 0
        verdict = self.default_verdict
        matched = False
        for rule in rules:
            examined += 1
            if rule.matches(pkt, owner):
                rule.packets += 1
                rule.bytes += pkt.wire_len
                self.metrics.counter(f"{chain.lower()}_{rule.verdict.lower()}").inc()
                verdict = rule.verdict
                matched = True
                break
        if not matched:
            self.metrics.counter(f"{chain.lower()}_default").inc()
        if self.point is not None:
            version = self.point.record_eval(hit=matched, dropped=(verdict == DROP))
            # Epoch stamp: which table version judged this packet (the
            # property test checks version -> ruleset is a function).
            pkt.meta.notes["nf_eval"] = (chain, version, verdict, examined)
        return verdict, examined

    def total_rules(self) -> int:
        return sum(len(rules) for rules in self._chains.values())
