"""Signal (promise) semantics and combinators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import AllOf, AnyOf, Signal, SimProcess, Simulator, SucceedWith


class TestSignal:
    def test_succeed_delivers_value(self):
        s = Signal("s")
        got = []
        s.add_callback(lambda sig: got.append(sig.value))
        s.succeed(42)
        assert got == [42]
        assert s.ok and s.triggered and not s.failed

    def test_callback_after_resolution_runs_immediately(self):
        s = Signal()
        s.succeed("v")
        got = []
        s.add_callback(lambda sig: got.append(sig.value))
        assert got == ["v"]

    def test_double_resolution_rejected(self):
        s = Signal()
        s.succeed()
        with pytest.raises(SimulationError):
            s.succeed()
        with pytest.raises(SimulationError):
            s.fail(RuntimeError("x"))

    def test_fail_carries_exception(self):
        s = Signal()
        err = RuntimeError("boom")
        s.fail(err)
        assert s.failed
        assert s.exception is err

    def test_value_unavailable_until_success(self):
        s = Signal("pending")
        with pytest.raises(SimulationError):
            _ = s.value

    def test_fail_requires_exception(self):
        s = Signal()
        with pytest.raises(SimulationError):
            s.fail("not an exception")  # type: ignore[arg-type]


def _callback(log, kind, tag):
    """A callback that logs what it saw; a ``nest`` one also adds a
    logging callback to the signal it runs for."""

    def record(sig):
        log.append((tag, sig.failed, sig.exception if sig.failed else sig.value))

    if kind == "add":
        return record

    def nest(sig):
        log.append((tag, "nest"))
        sig.add_callback(record)
        log.append((tag, "nest-end"))

    return nest


class _ListSignal:
    """Reference model: callbacks kept in a plain list and dispatched in
    order, a callback added after resolution run at once."""

    def __init__(self):
        self.triggered = False
        self.failed = False
        self.value = None
        self.exception = None
        self.callbacks = []

    def _resolve(self):
        self.triggered = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)

    def succeed(self, value):
        self.value = value
        self._resolve()

    def fail(self, exc):
        self.failed = True
        self.exception = exc
        self._resolve()

    def add_callback(self, cb):
        if self.triggered:
            cb(self)
        else:
            self.callbacks.append(cb)


_OPS = st.lists(
    st.tuples(st.sampled_from(["add", "nest", "succeed", "fail"]), st.integers(0, 9)),
    max_size=12,
)


class TestSignalCallbacks:
    """A signal stores no callback, one callback, or a list of them; the
    behaviour must be a plain list's whichever form it is in."""

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_callbacks_run_in_registration_order(self, n):
        s = Signal()
        log = []
        for i in range(n):
            s.add_callback(_callback(log, "add", i))
        s.succeed("v")
        assert log == [(i, False, "v") for i in range(n)]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_fail_reaches_every_callback_in_order(self, n):
        s = Signal()
        err = RuntimeError("boom")
        log = []
        for i in range(n):
            s.add_callback(_callback(log, "add", i))
        s.fail(err)
        assert log == [(i, True, err) for i in range(n)]

    @pytest.mark.parametrize("n_before", [0, 1, 2])
    @pytest.mark.parametrize("fail", [False, True])
    def test_add_after_resolve_runs_at_once(self, n_before, fail):
        s = Signal()
        log = []
        for i in range(n_before):
            s.add_callback(_callback(log, "add", i))
        err = RuntimeError("boom")
        s.fail(err) if fail else s.succeed("v")
        del log[:]
        s.add_callback(_callback(log, "add", "late"))
        assert log == [("late", fail, err if fail else "v")]

    @pytest.mark.parametrize("n_after", [0, 1, 2])
    def test_callback_added_while_dispatching_runs_at_once(self, n_after):
        s = Signal()
        log = []
        s.add_callback(_callback(log, "nest", "outer"))
        for i in range(n_after):
            s.add_callback(_callback(log, "add", i))
        s.succeed("v")
        assert log == (
            [("outer", "nest"), ("outer", False, "v"), ("outer", "nest-end")]
            + [(i, False, "v") for i in range(n_after)]
        )

    def test_callbacks_run_once(self):
        s = Signal()
        log = []
        s.add_callback(_callback(log, "add", 0))
        s.add_callback(_callback(log, "add", 1))
        s.succeed("v")
        with pytest.raises(SimulationError):
            s.succeed("again")
        assert log == [(0, False, "v"), (1, False, "v")]

    def test_succeed_with_relays_a_fixed_value(self):
        done, result = Signal(), Signal()
        done.add_callback(SucceedWith(result, ["m"]))
        assert not result.triggered
        done.succeed(123)
        assert result.value == ["m"]

    @given(ops=_OPS)
    @settings(max_examples=300, deadline=None)
    def test_matches_a_plain_list(self, ops):
        sig, ref = Signal("s"), _ListSignal()
        got, want = [], []
        err = RuntimeError("boom")
        for op, arg in ops:
            if op in ("add", "nest"):
                sig.add_callback(_callback(got, op, arg))
                ref.add_callback(_callback(want, op, arg))
            elif ref.triggered:
                with pytest.raises(SimulationError):
                    sig.succeed(arg) if op == "succeed" else sig.fail(err)
            elif op == "succeed":
                sig.succeed(arg)
                ref.succeed(arg)
            else:
                sig.fail(err)
                ref.fail(err)
            assert got == want
            # SimProcess reads this to decide whether anyone is waiting.
            assert (sig._callbacks is not None) == bool(ref.callbacks)


class TestProcessWaiters:
    """A process whose generator raises delivers the error to whoever
    waits on its ``done`` and raises it out of the engine otherwise."""

    @staticmethod
    def _crashing(sim):
        def worker():
            yield 10
            raise ValueError("crash")

        return SimProcess(sim, worker(), name="crasher")

    @pytest.mark.parametrize("n_waiters", [1, 2, 3])
    def test_error_goes_to_the_waiters(self, n_waiters):
        sim = Simulator()
        proc = self._crashing(sim)
        seen = []
        for _ in range(n_waiters):
            proc.done.add_callback(lambda s: seen.append(type(s.exception)))
        sim.run()
        assert seen == [ValueError] * n_waiters

    def test_error_goes_to_one_waiting_process(self):
        sim = Simulator()
        proc = self._crashing(sim)
        caught = []

        def waiter():
            try:
                yield proc
            except ValueError as exc:
                caught.append(str(exc))

        SimProcess(sim, waiter(), name="waiter")
        sim.run()
        assert caught == ["crash"]

    def test_error_with_no_waiter_escapes(self):
        sim = Simulator()
        self._crashing(sim)
        with pytest.raises(ValueError, match="crash"):
            sim.run()


class TestAllOf:
    def test_collects_values_in_order(self):
        a, b, c = Signal("a"), Signal("b"), Signal("c")
        combo = AllOf([a, b, c])
        b.succeed(2)
        a.succeed(1)
        assert not combo.triggered
        c.succeed(3)
        assert combo.value == [1, 2, 3]

    def test_empty_succeeds_immediately(self):
        assert AllOf([]).value == []

    def test_fails_fast(self):
        a, b = Signal(), Signal()
        combo = AllOf([a, b])
        a.fail(ValueError("bad"))
        assert combo.failed
        assert isinstance(combo.exception, ValueError)


class TestAnyOf:
    def test_first_winner_reported_with_index(self):
        a, b = Signal(), Signal()
        combo = AnyOf([a, b])
        b.succeed("second-signal")
        assert combo.value == (1, "second-signal")

    def test_later_resolutions_ignored(self):
        a, b = Signal(), Signal()
        combo = AnyOf([a, b])
        a.succeed("x")
        b.succeed("y")
        assert combo.value == (0, "x")

    def test_requires_children(self):
        with pytest.raises(SimulationError):
            AnyOf([])
