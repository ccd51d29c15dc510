"""Queueing disciplines: pfifo, token bucket, deficit round robin, prio.

These are the `tc`-configurable policies of the §2 QoS scenario. The same
qdisc objects run in two places: inside the software kernel (baseline
dataplane) and compiled onto the SmartNIC scheduler (KOPI) — the point of
§4.4 is that the *policy* is identical, only its execution site moves.

The interface is poll-based so both a software runner and the NIC scheduler
can drive it:

* ``enqueue(pkt, cls)`` — admit a packet (False = tail drop);
* ``dequeue(now_ns)`` — next packet permitted to leave at ``now_ns``;
* ``next_ready_ns(now_ns)`` — when a dequeue could next succeed (None when
  empty), so the runner knows when to wake up without busy polling.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from .. import units
from ..errors import PolicyError
from ..net.packet import Packet

DEFAULT_CLASS = "default"


class Qdisc:
    """Interface; see module docstring."""

    def enqueue(self, pkt: Packet, cls: str = DEFAULT_CLASS) -> bool:
        raise NotImplementedError

    def dequeue(self, now_ns: int) -> Optional[Packet]:
        raise NotImplementedError

    def next_ready_ns(self, now_ns: int) -> Optional[int]:
        raise NotImplementedError

    @property
    def backlog(self) -> int:
        raise NotImplementedError


class PfifoQdisc(Qdisc):
    """Plain FIFO with a packet-count limit (Linux default qdisc shape)."""

    def __init__(self, limit: int = 1_000):
        if limit < 1:
            raise PolicyError(f"pfifo limit must be >= 1, got {limit}")
        self.limit = limit
        self._queue: Deque[Packet] = deque()
        self.dropped = 0

    def enqueue(self, pkt: Packet, cls: str = DEFAULT_CLASS) -> bool:
        if len(self._queue) >= self.limit:
            self.dropped += 1
            return False
        self._queue.append(pkt)
        return True

    def dequeue(self, now_ns: int) -> Optional[Packet]:
        return self._queue.popleft() if self._queue else None

    def next_ready_ns(self, now_ns: int) -> Optional[int]:
        return now_ns if self._queue else None

    @property
    def backlog(self) -> int:
        return len(self._queue)


class TbfQdisc(Qdisc):
    """Token bucket filter: rate + burst, like ``tc qdisc add ... tbf``."""

    def __init__(self, rate_bps: int, burst_bytes: int, limit: int = 1_000):
        if rate_bps <= 0:
            raise PolicyError(f"tbf rate must be positive: {rate_bps}")
        if burst_bytes < 1:
            raise PolicyError(f"tbf burst must be >= 1 byte: {burst_bytes}")
        self.rate_bps = rate_bps
        self.burst_bytes = burst_bytes
        self.limit = limit
        self._queue: Deque[Packet] = deque()
        self._tokens = float(burst_bytes)
        self._last_fill_ns = 0
        self.dropped = 0

    def _refill(self, now_ns: int) -> None:
        elapsed = now_ns - self._last_fill_ns
        if elapsed <= 0:
            return
        self._tokens = min(
            float(self.burst_bytes),
            self._tokens + elapsed * self.rate_bps / (8 * units.SEC),
        )
        self._last_fill_ns = now_ns

    def enqueue(self, pkt: Packet, cls: str = DEFAULT_CLASS) -> bool:
        if pkt.wire_len > self.burst_bytes:
            # Linux tbf drops frames larger than the bucket — they could
            # never accumulate enough tokens to leave.
            self.dropped += 1
            return False
        if len(self._queue) >= self.limit:
            self.dropped += 1
            return False
        self._queue.append(pkt)
        return True

    def dequeue(self, now_ns: int) -> Optional[Packet]:
        if not self._queue:
            return None
        self._refill(now_ns)
        head = self._queue[0]
        if self._tokens < head.wire_len:
            return None
        self._tokens -= head.wire_len
        return self._queue.popleft()

    def next_ready_ns(self, now_ns: int) -> Optional[int]:
        if not self._queue:
            return None
        self._refill(now_ns)
        deficit = self._queue[0].wire_len - self._tokens
        if deficit <= 0:
            return now_ns
        wait = int(deficit * 8 * units.SEC / self.rate_bps) + 1
        return now_ns + wait

    @property
    def backlog(self) -> int:
        return len(self._queue)


class DrrQdisc(Qdisc):
    """Deficit round robin — the work-conserving weighted fair queueing of
    the §2 QoS scenario. Weights are relative byte shares."""

    def __init__(self, weights: Dict[str, int], quantum_bytes: int = 1_514, limit: int = 1_000):
        if not weights:
            raise PolicyError("DRR needs at least one class")
        if any(w < 1 for w in weights.values()):
            raise PolicyError(f"weights must be >= 1: {weights}")
        self.weights = dict(weights)
        self.quantum_bytes = quantum_bytes
        self.limit = limit
        self._queues: Dict[str, Deque[Packet]] = {c: deque() for c in weights}
        self._deficits: Dict[str, int] = {c: 0 for c in weights}
        self._active: Deque[str] = deque()
        self.dropped = 0
        self.sent_bytes: Dict[str, int] = {c: 0 for c in weights}

    def enqueue(self, pkt: Packet, cls: str = DEFAULT_CLASS) -> bool:
        if cls not in self._queues:
            raise PolicyError(f"unknown DRR class: {cls!r} (have {sorted(self._queues)})")
        q = self._queues[cls]
        if len(q) >= self.limit:
            self.dropped += 1
            return False
        q.append(pkt)
        if cls not in self._active:
            self._active.append(cls)
            self._deficits[cls] = 0
        return True

    def dequeue(self, now_ns: int) -> Optional[Packet]:
        # Bounded scan: each active class visited at most twice per call
        # (once to top up deficit, once after).
        for _ in range(2 * len(self._active) + 1):
            if not self._active:
                return None
            cls = self._active[0]
            q = self._queues[cls]
            if not q:
                self._active.popleft()
                continue
            head = q[0]
            if self._deficits[cls] >= head.wire_len:
                self._deficits[cls] -= head.wire_len
                self.sent_bytes[cls] += head.wire_len
                q.popleft()
                if not q:
                    self._active.popleft()
                return head
            # Give this class its quantum and rotate.
            self._deficits[cls] += self.quantum_bytes * self.weights[cls]
            self._active.rotate(-1)
        return None

    def next_ready_ns(self, now_ns: int) -> Optional[int]:
        return now_ns if any(self._queues.values()) else None

    @property
    def backlog(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def share_of(self, cls: str) -> float:
        """Fraction of all dequeued bytes that went to ``cls``."""
        total = sum(self.sent_bytes.values())
        return self.sent_bytes.get(cls, 0) / total if total else 0.0


class PrioQdisc(Qdisc):
    """Strict priority bands; band 0 always drains first."""

    def __init__(self, bands: int = 3, limit: int = 1_000):
        if bands < 1:
            raise PolicyError(f"need at least one band: {bands}")
        self.bands = bands
        self.limit = limit
        self._queues: List[Deque[Packet]] = [deque() for _ in range(bands)]
        self.dropped = 0

    def enqueue(self, pkt: Packet, cls: str = DEFAULT_CLASS) -> bool:
        try:
            band = 0 if cls == DEFAULT_CLASS else int(cls)
        except ValueError as exc:
            raise PolicyError(f"prio class must be a band number, got {cls!r}") from exc
        if not 0 <= band < self.bands:
            raise PolicyError(f"band out of range: {band}")
        q = self._queues[band]
        if len(q) >= self.limit:
            self.dropped += 1
            return False
        q.append(pkt)
        return True

    def dequeue(self, now_ns: int) -> Optional[Packet]:
        for q in self._queues:
            if q:
                return q.popleft()
        return None

    def next_ready_ns(self, now_ns: int) -> Optional[int]:
        return now_ns if any(self._queues) else None

    @property
    def backlog(self) -> int:
        return sum(len(q) for q in self._queues)


def qdisc_from_spec(kind: str, **params: object) -> Qdisc:
    """Factory used by the `tc` tool and the overlay compiler."""
    kinds = {
        "pfifo": PfifoQdisc,
        "tbf": TbfQdisc,
        "drr": DrrQdisc,
        "wfq": DrrQdisc,  # the paper says WFQ; DRR is its practical form
        "prio": PrioQdisc,
    }
    if kind not in kinds:
        raise PolicyError(f"unknown qdisc kind: {kind!r} (have {sorted(kinds)})")
    return kinds[kind](**params)  # type: ignore[arg-type]
