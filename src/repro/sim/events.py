"""One-shot signals (promises) and combinators.

A :class:`Signal` is the synchronization primitive everything else is built
on: processes yield signals to block, the kernel succeeds them to wake
threads, NICs succeed them to report completions.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Union

from ..errors import SimulationError

_PENDING = "pending"
_SUCCEEDED = "succeeded"
_FAILED = "failed"

Callback = Callable[["Signal"], None]


class Signal:
    """A one-shot event that either succeeds with a value or fails with an
    exception. Callbacks attached after resolution run immediately."""

    __slots__ = ("name", "_state", "_value", "_exc", "_callbacks")

    def __init__(self, name: str = ""):
        self.name = name
        self._state = _PENDING
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        # None, the one callback, or a list once there are two or more:
        # most signals have one waiter, and a list per signal is an object
        # the cyclic GC would track for every pending read.
        self._callbacks: Union[None, Callback, List[Callback]] = None

    # --- state ----------------------------------------------------------

    @property
    def triggered(self) -> bool:
        """True once succeeded or failed."""
        return self._state != _PENDING

    @property
    def ok(self) -> bool:
        return self._state == _SUCCEEDED

    @property
    def failed(self) -> bool:
        return self._state == _FAILED

    @property
    def value(self) -> Any:
        if self._state != _SUCCEEDED:
            raise SimulationError(f"signal {self.name!r} has no value (state={self._state})")
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # --- resolution -------------------------------------------------------

    def succeed(self, value: Any = None) -> "Signal":
        """Resolve successfully; runs callbacks synchronously."""
        if self._state != _PENDING:
            raise SimulationError(f"signal {self.name!r} already {self._state}")
        self._state = _SUCCEEDED
        self._value = value
        self._dispatch()
        return self

    def fail(self, exc: BaseException) -> "Signal":
        """Resolve with an error; runs callbacks synchronously."""
        if self._state != _PENDING:
            raise SimulationError(f"signal {self.name!r} already {self._state}")
        if not isinstance(exc, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exc!r}")
        self._state = _FAILED
        self._exc = exc
        self._dispatch()
        return self

    def _dispatch(self) -> None:
        callbacks = self._callbacks
        if callbacks is None:
            return
        self._callbacks = None
        if type(callbacks) is list:
            for cb in callbacks:
                cb(self)
        else:
            callbacks(self)

    def add_callback(self, cb: Callback) -> None:
        """Run ``cb(self)`` on resolution (immediately if already resolved).
        Callbacks run in the order they were added."""
        if self._state != _PENDING:
            cb(self)
            return
        callbacks = self._callbacks
        if callbacks is None:
            self._callbacks = cb
        elif type(callbacks) is list:
            callbacks.append(cb)
        else:
            self._callbacks = [callbacks, cb]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Signal {self.name!r} {self._state}>"


class SucceedWith:
    """A callback that succeeds ``target`` with ``value`` once the signal it
    is added to fires: ``done.add_callback(SucceedWith(result, msgs))``.
    One slotted object where a closure would take a function, its cell
    tuple and a cell per captured name."""

    __slots__ = ("target", "value")

    def __init__(self, target: Signal, value: Any):
        self.target = target
        self.value = value

    def __call__(self, _fired: Signal) -> None:
        self.target.succeed(self.value)


class AllOf(Signal):
    """Succeeds when every child succeeds; fails fast on the first failure.

    The value is the list of child values in the order given.
    """

    __slots__ = ("_children", "_remaining")

    def __init__(self, children: Sequence[Signal], name: str = "all_of"):
        super().__init__(name)
        self._children = list(children)
        self._remaining = len(self._children)
        if self._remaining == 0:
            self.succeed([])
            return
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Signal) -> None:
        if self.triggered:
            return
        if child.failed:
            self.fail(child.exception)  # type: ignore[arg-type]
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([c.value for c in self._children])


class AnyOf(Signal):
    """Succeeds (or fails) with the first child to resolve.

    The value is a ``(index, value)`` pair identifying the winner.
    """

    __slots__ = ("_children",)

    def __init__(self, children: Sequence[Signal], name: str = "any_of"):
        super().__init__(name)
        self._children = list(children)
        if not self._children:
            raise SimulationError("AnyOf needs at least one child signal")
        for idx, child in enumerate(self._children):
            child.add_callback(lambda c, i=idx: self._on_child(i, c))

    def _on_child(self, idx: int, child: Signal) -> None:
        if self.triggered:
            return
        if child.failed:
            self.fail(child.exception)  # type: ignore[arg-type]
        else:
            self.succeed((idx, child.value))
