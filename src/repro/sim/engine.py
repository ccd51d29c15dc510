"""The discrete-event engine.

A :class:`Simulator` owns one binary heap of pending events. Each event
is a plain callback scheduled at an absolute integer-nanosecond
timestamp. Ties are broken by insertion order, so a run is fully
deterministic: events fire in the total order of their ``(time, seq)``
keys. The heap holds one mutable entry per event, the list
``[time, seq, fn, args, sim]`` (:class:`EventHandle`), and that entry is
also the handle scheduling returns: an event costs one allocation, and
firing it is ``fn(*args)``.

The heap stays shallow in practice: flow groups share one horizon timer,
and the perfbench workloads keep a mean of 6.5 to ~3,070 entries pending.
At that depth C ``heapq`` push/pop is cheap (measurements in
``docs/hybrid_fidelity.md``, "Event queue: one heap").
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

from ..errors import SimulationError


class EventHandle(list):
    """A scheduled callback: the queue entry itself, and the handle that
    :meth:`Simulator.at` and :meth:`Simulator.after` return.

    The entry is the list ``[time, seq, fn, args, sim]``. The heap orders
    entries as lists compare, element by element; ``seq`` is unique, so a
    comparison never reaches ``fn``. Being a list, a handle is unhashable:
    keep it as an attribute, never as a dict key or set member.

    Cancellation is lazy: the entry stays in the queue with a no-op body
    and is skipped when it surfaces, which keeps cancelling O(1). The owning
    simulator tracks how many cancelled entries its queue carries and
    compacts when they dominate (see :meth:`Simulator._compact`). An entry
    detaches from its simulator when it fires, so a later cancel leaves
    those books alone.
    """

    __slots__ = ()

    @property
    def time(self) -> int:
        return self[0]

    @property
    def cancelled(self) -> bool:
        return self[2] is _cancelled_fn

    def cancel(self) -> None:
        """Prevent the callback from running. Safe to call more than once,
        and after the event has fired."""
        if self[2] is _cancelled_fn:
            return
        self[2] = _cancelled_fn
        self[3] = ()
        sim = self[4]
        if sim is not None:
            sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self[0]} {state}>"


def _cancelled_fn() -> None:
    """Body of a cancelled event."""


class Simulator:
    """Deterministic discrete-event simulator with integer-ns time."""

    #: Below this queue size, compaction is not worth the rebuild.
    COMPACT_MIN_HEAP = 64

    def __init__(self) -> None:
        self._now = 0
        self._seq = 0
        self._heap: List[EventHandle] = []
        self._events_fired = 0
        self._cancelled_pending = 0
        self._compactions = 0

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total callbacks executed so far (observability / tests)."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of queue entries (including lazily-cancelled ones)."""
        return len(self._heap)

    @property
    def cancelled_pending(self) -> int:
        """Lazily-cancelled entries still occupying queue slots."""
        return self._cancelled_pending

    @property
    def heap_compactions(self) -> int:
        """How many times the queue has been compacted (observability)."""
        return self._compactions

    def _note_cancelled(self) -> None:
        """Queue hygiene: when cancelled entries exceed 50% of ``pending``,
        rebuild the heap without them. Lazy cancellation otherwise leaks
        the slots for the lifetime of a run (timer-heavy workloads cancel
        far more events than they fire)."""
        self._cancelled_pending += 1
        pending = len(self._heap)
        if pending >= self.COMPACT_MIN_HEAP and self._cancelled_pending * 2 > pending:
            self._compact()

    def _compact(self) -> None:
        # In place: run() holds a local alias to the heap list, so the list
        # object must survive. heapify preserves firing order because
        # (time, seq) keys are unique and totally ordered.
        heap = self._heap
        heap[:] = [e for e in heap if e[2] is not _cancelled_fn]
        heapify(heap)
        self._cancelled_pending = 0
        self._compactions += 1

    def _drop_cancelled_head(self) -> None:
        """Pop cancelled entries off the top, leaving a live head (or none)."""
        heap = self._heap
        while heap and heap[0][2] is _cancelled_fn:
            heappop(heap)
            self._cancelled_pending -= 1

    # --- scheduling ---------------------------------------------------------

    def at(self, time_ns: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute time ``time_ns``."""
        if time_ns < self._now:
            raise SimulationError(
                f"cannot schedule at t={time_ns} ns; now is {self._now} ns"
            )
        self._seq += 1
        entry = EventHandle((time_ns, self._seq, fn, args, self))
        heappush(self._heap, entry)
        return entry

    def after(self, delay_ns: int, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` ``delay_ns`` from now."""
        if delay_ns < 0:
            raise SimulationError(f"negative delay: {delay_ns}")
        # at(), inlined: most events are scheduled relative to now.
        self._seq += 1
        entry = EventHandle((self._now + delay_ns, self._seq, fn, args, self))
        heappush(self._heap, entry)
        return entry

    # --- execution ----------------------------------------------------------

    def peek(self) -> Optional[int]:
        """Timestamp of the next non-cancelled event, or None if idle."""
        self._drop_cancelled_head()
        return self._heap[0][0] if self._heap else None

    def step(self) -> bool:
        """Execute the next event. Returns False when no events remain."""
        self._drop_cancelled_head()
        if not self._heap:
            return False
        entry = heappop(self._heap)
        self._now = entry[0]
        self._events_fired += 1
        entry[4] = None
        entry[2](*entry[3])
        return True

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run events until the queue drains, ``until`` is reached, or
        ``max_events`` callbacks have executed.

        Returns the simulated time afterwards. When stopping at ``until``,
        the clock is advanced to ``until`` even if no event fires exactly
        there, so back-to-back ``run(until=...)`` calls behave like wall
        clock segments. An ``until`` in the past raises, as :meth:`at` does
        for a past time; the clock would otherwise run backwards.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"cannot run until t={until} ns; now is {self._now} ns"
            )
        fired = 0
        heap = self._heap
        while max_events is None or fired < max_events:
            # _drop_cancelled_head, inlined: this loop runs once per event.
            while heap and heap[0][2] is _cancelled_fn:
                heappop(heap)
                self._cancelled_pending -= 1
            if not heap:
                if until is not None and until > self._now:
                    self._now = until
                return self._now
            if until is not None and heap[0][0] > until:
                self._now = until
                return self._now
            entry = heappop(heap)
            self._now = entry[0]
            self._events_fired += 1
            entry[4] = None  # detach: a later cancel leaves the books alone
            entry[2](*entry[3])
            fired += 1
        return self._now

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Drain the event queue completely; guard against runaway loops.

        Fires at most ``max_events`` callbacks; if non-cancelled work
        remains after that, raises.
        """
        self.run(max_events=max_events)
        if self.peek() is not None:
            raise SimulationError(
                f"run_until_idle exceeded {max_events} events; likely a livelock"
            )
        return self._now

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self._now}ns pending={self.pending}>"
