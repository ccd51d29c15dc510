"""Generator-based simulated processes.

A simulated process is a Python generator that yields one of:

* an ``int`` — sleep that many nanoseconds;
* a :class:`~repro.sim.events.Signal` — block until it resolves; the signal's
  value is sent back into the generator (a failed signal is thrown in);
* another :class:`SimProcess` — block until it finishes; its return value is
  sent back.

The process itself exposes a ``done`` signal carrying the generator's return
value, so processes compose. An exception that escapes a generator fails
``done``; if nothing is waiting on ``done`` the exception propagates out of
the engine, so failures never pass silently.
"""

from __future__ import annotations

import itertools
from typing import Any, Generator, Optional, Union

from ..errors import SimulationError
from .engine import EventHandle, Simulator
from .events import Signal

Yieldable = Union[int, Signal, "SimProcess"]

#: Process ids, process-wide; module-level for the same reason as
#: ``repro.net.packet``'s packet ids (no class-attribute write per process).
_pids = itertools.count(1)


class SimProcess:
    """Drives a generator inside a :class:`Simulator`."""

    def __init__(
        self,
        sim: Simulator,
        gen: Generator[Yieldable, Any, Any],
        name: str = "",
    ):
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"SimProcess needs a generator, got {type(gen).__name__}; "
                "did you forget to call the generator function?"
            )
        self.pid = next(_pids)
        self.name = name or f"proc-{self.pid}"
        self.sim = sim
        self.done = Signal(f"{self.name}.done")
        self._gen = gen
        self._waiting_on: Optional[Signal] = None
        # The timer of a pending ``yield <int>``. Any resume cancels it: a
        # resume other than the timer's own is an interrupt, and the
        # generator must not see the timer later, at its next wait.
        self._sleep: Optional[EventHandle] = None
        sim.after(0, self._step, None, None)

    # --- public -----------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.done.triggered

    def interrupt(self, exc: Optional[BaseException] = None) -> None:
        """Throw ``exc`` (default :class:`ProcessInterrupted`) into the
        generator at its current wait point."""
        if self.finished:
            return
        exc = exc or ProcessInterrupted(f"{self.name} interrupted")
        self._waiting_on = None
        self.sim.after(0, self._step, None, exc)

    # --- engine plumbing ----------------------------------------------------

    def _step(self, send_value: Any, throw_exc: Optional[BaseException]) -> None:
        # A thrown exception the generator handles keeps the traceback the
        # throw gave it, and from Python 3.12 that traceback holds this
        # frame and its callers, which hold the exception (a reference
        # cycle per failed non-blocking read). It is dropped once handled;
        # one that escapes keeps it for the error report.
        if self.finished:
            return
        sleep = self._sleep
        if sleep is not None:
            self._sleep = None
            sleep.cancel()  # a no-op for the books once it has fired
        try:
            if throw_exc is not None:
                yielded = self._gen.throw(throw_exc)
                throw_exc.__traceback__ = None
            else:
                yielded = self._gen.send(send_value)
        except StopIteration as stop:
            if throw_exc is not None:
                throw_exc.__traceback__ = None
            self.done.succeed(getattr(stop, "value", None))
            return
        except BaseException as exc:  # noqa: BLE001 - deliberate fan-out
            if self.done._callbacks is not None:  # someone is waiting; deliver there
                self.done.fail(exc)
                return
            self.done.fail(exc)
            raise
        self._wait_for(yielded)

    def _wait_for(self, yielded: Yieldable) -> None:
        if isinstance(yielded, int):
            if yielded < 0:
                self._throw_soon(SimulationError(f"negative sleep: {yielded}"))
                return
            self._sleep = self.sim.after(yielded, self._step, None, None)
            return
        if isinstance(yielded, SimProcess):
            yielded = yielded.done
        if isinstance(yielded, Signal):
            self._waiting_on = yielded
            yielded.add_callback(self._on_signal)
            return
        self._throw_soon(
            SimulationError(
                f"{self.name} yielded {yielded!r}; expected int, Signal, or SimProcess"
            )
        )

    def _on_signal(self, signal: Signal) -> None:
        if self._waiting_on is not signal:
            return  # stale callback after an interrupt
        self._waiting_on = None
        if signal.failed:
            self.sim.after(0, self._step, None, signal.exception)
        else:
            self.sim.after(0, self._step, signal.value, None)

    def _throw_soon(self, exc: BaseException) -> None:
        self.sim.after(0, self._step, None, exc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.finished else "running"
        return f"<SimProcess {self.name} {state}>"


class ProcessInterrupted(SimulationError):
    """Raised inside a generator when its process is interrupted."""
