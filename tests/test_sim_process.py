"""Generator-process semantics."""

import pytest

from repro.errors import SimulationError
from repro.sim import Signal, SimProcess, Simulator
from repro.sim.process import ProcessInterrupted


class TestSleeping:
    def test_integer_yield_sleeps(self):
        sim = Simulator()
        trace = []

        def worker():
            trace.append(sim.now)
            yield 100
            trace.append(sim.now)
            yield 50
            trace.append(sim.now)

        SimProcess(sim, worker())
        sim.run()
        assert trace == [0, 100, 150]

    def test_negative_sleep_fails_process(self):
        sim = Simulator()

        def worker():
            yield -5

        proc = SimProcess(sim, worker())
        proc.done.add_callback(lambda s: None)  # mark as awaited
        sim.run()
        assert proc.done.failed


class TestSignals:
    def test_signal_value_sent_into_generator(self):
        sim = Simulator()
        ready = Signal("ready")
        got = []

        def worker():
            value = yield ready
            got.append(value)

        SimProcess(sim, worker())
        sim.after(10, ready.succeed, "payload")
        sim.run()
        assert got == ["payload"]

    def test_failed_signal_thrown_into_generator(self):
        sim = Simulator()
        doomed = Signal()
        caught = []

        def worker():
            try:
                yield doomed
            except ValueError as exc:
                caught.append(str(exc))

        SimProcess(sim, worker())
        sim.after(5, doomed.fail, ValueError("io error"))
        sim.run()
        assert caught == ["io error"]

    @pytest.mark.parametrize("then", ["yield", "return"])
    def test_handled_exception_drops_its_traceback(self, then):
        """From Python 3.12 the traceback a throw attaches holds the
        engine frames that hold the exception: a reference cycle per
        handled throw, unless the traceback goes once it is handled."""
        sim = Simulator()
        doomed = Signal()

        def worker():
            try:
                yield doomed
            except ValueError:
                pass
            if then == "yield":
                yield 10

        SimProcess(sim, worker())
        sim.after(5, doomed.fail, ValueError("io error"))
        sim.run()
        assert doomed.exception.__traceback__ is None

    def test_escaping_exception_keeps_its_traceback(self):
        sim = Simulator()
        doomed = Signal()

        def worker():
            yield doomed

        proc = SimProcess(sim, worker())
        proc.done.add_callback(lambda s: None)  # mark as awaited
        sim.after(5, doomed.fail, ValueError("io error"))
        sim.run()
        assert proc.done.exception is doomed.exception
        assert doomed.exception.__traceback__ is not None


class TestComposition:
    def test_waiting_on_child_process_gets_return_value(self):
        sim = Simulator()
        results = []

        def child():
            yield 30
            return "child-result"

        def parent():
            value = yield SimProcess(sim, child())
            results.append((sim.now, value))

        SimProcess(sim, parent())
        sim.run()
        assert results == [(30, "child-result")]

    def test_unhandled_exception_propagates_when_unawaited(self):
        sim = Simulator()

        def worker():
            yield 1
            raise RuntimeError("unobserved crash")

        SimProcess(sim, worker())
        with pytest.raises(RuntimeError, match="unobserved crash"):
            sim.run()

    def test_awaited_exception_is_delivered_not_raised(self):
        sim = Simulator()
        observed = []

        def worker():
            yield 1
            raise RuntimeError("observed crash")

        proc = SimProcess(sim, worker())
        proc.done.add_callback(lambda s: observed.append(type(s.exception)))
        sim.run()
        assert observed == [RuntimeError]


class TestInterrupt:
    def test_interrupt_wakes_blocked_process(self):
        sim = Simulator()
        never = Signal("never")
        trace = []

        def worker():
            try:
                yield never
            except ProcessInterrupted:
                trace.append(sim.now)

        proc = SimProcess(sim, worker())
        sim.after(77, proc.interrupt)
        sim.run()
        assert trace == [77]

    def test_interrupt_cancels_pending_sleep(self):
        """An interrupted sleep's timer must not resume the generator
        later, at whatever it waits on next."""
        sim = Simulator()
        never = Signal("never")
        trace = []

        def worker():
            try:
                yield 1_000
            except ProcessInterrupted:
                trace.append(("interrupted", sim.now))
            value = yield never
            trace.append(("resumed", sim.now, value))

        proc = SimProcess(sim, worker())
        sim.after(100, proc.interrupt)
        sim.run()
        assert trace == [("interrupted", 100)]
        assert not proc.finished
        assert sim.cancelled_pending == 0

    def test_interrupt_landing_beside_a_resume_cancels_the_next_sleep(self):
        """The interrupt arrives while a resume is already scheduled: the
        resumed generator starts a sleep, and the interrupt lands there."""
        sim = Simulator()
        ready, never = Signal("ready"), Signal("never")
        trace = []

        def worker():
            yield ready
            try:
                yield 1_000
            except ProcessInterrupted:
                trace.append(("interrupted", sim.now))
            value = yield never
            trace.append(("resumed", sim.now, value))

        proc = SimProcess(sim, worker())

        def both():
            ready.succeed(1)
            proc.interrupt()

        sim.after(100, both)
        sim.run()
        assert trace == [("interrupted", 100)]
        assert sim.cancelled_pending == 0

    def test_sleep_after_interrupt_runs_to_its_own_timer(self):
        sim = Simulator()
        trace = []

        def worker():
            try:
                yield 1_000
            except ProcessInterrupted:
                pass
            yield 5_000
            trace.append(sim.now)

        proc = SimProcess(sim, worker())
        sim.after(100, proc.interrupt)
        sim.run()
        assert trace == [5_100]

    def test_interrupting_finished_process_is_noop(self):
        sim = Simulator()

        def worker():
            yield 1

        proc = SimProcess(sim, worker())
        sim.run()
        proc.interrupt()
        sim.run()

    def test_bad_yield_type_fails(self):
        sim = Simulator()

        def worker():
            yield "not a yieldable"

        proc = SimProcess(sim, worker())
        proc.done.add_callback(lambda s: None)
        sim.run()
        assert proc.done.failed
        assert isinstance(proc.done.exception, SimulationError)

    def test_requires_generator(self):
        sim = Simulator()

        def not_a_generator():
            return 42

        with pytest.raises(SimulationError):
            SimProcess(sim, not_a_generator())  # type: ignore[arg-type]
