"""Discrete-event engine behaviour."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        order = []
        sim.after(30, order.append, "c")
        sim.after(10, order.append, "a")
        sim.after(20, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sim = Simulator()
        order = []
        for tag in "abcde":
            sim.after(100, order.append, tag)
        sim.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.after(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_cannot_schedule_in_past(self):
        sim = Simulator()
        sim.after(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(5, lambda: None)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.after(-1, lambda: None)

    def test_events_scheduled_during_run_execute(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.after(5, order.append, "nested")

        sim.after(10, first)
        sim.after(100, order.append, "last")
        sim.run()
        assert order == ["first", "nested", "last"]
        assert sim.now == 100


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        handle = sim.after(10, fired.append, "x")
        handle.cancel()
        sim.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.after(10, lambda: None)
        handle.cancel()
        handle.cancel()
        sim.run()

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        h = sim.after(10, lambda: None)
        sim.after(20, lambda: None)
        h.cancel()
        assert sim.peek() == 20


class TestRunUntil:
    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.after(10, fired.append, "early")
        sim.after(100, fired.append, "late")
        sim.run(until=50)
        assert fired == ["early"]
        assert sim.now == 50
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_advances_clock_when_idle(self):
        sim = Simulator()
        sim.run(until=1_000)
        assert sim.now == 1_000

    def test_run_until_in_the_past_raises_and_leaves_clock(self):
        sim = Simulator()
        fired = []
        sim.at(1_000, fired.append, 1_000)
        sim.at(5_000, fired.append, 5_000)
        sim.run(until=2_000)
        assert fired == [1_000] and sim.now == 2_000
        with pytest.raises(SimulationError):
            sim.run(until=500)
        # Nothing fired, the clock did not run backwards, and a new event
        # cannot land behind the one that already fired at 1,000.
        assert sim.now == 2_000 and sim.pending == 1
        sim.after(10, fired.append, "after")
        sim.run(until=2_000)
        sim.run()
        assert fired == [1_000, "after", 5_000]
        assert sim.now == 5_000

    def test_max_events_bound(self):
        sim = Simulator()
        for _ in range(10):
            sim.after(1, lambda: None)
        sim.run(max_events=3)
        assert sim.events_fired == 3

    def test_run_until_idle_detects_livelock(self):
        sim = Simulator()

        def rescheduler():
            sim.after(1, rescheduler)

        sim.after(1, rescheduler)
        with pytest.raises(SimulationError):
            sim.run_until_idle(max_events=100)


class TestHeapCompaction:
    def test_compaction_triggers_when_cancelled_dominate(self):
        sim = Simulator()
        keep = [sim.after(1_000 + i, lambda: None) for i in range(40)]
        victims = [sim.after(10_000 + i, lambda: None) for i in range(80)]
        assert sim.pending == 120
        for h in victims:
            h.cancel()
        # Cancelled entries crossed 50% of the heap, so the simulator
        # rebuilt it; afterwards the residue is below the threshold again.
        assert sim.heap_compactions >= 1
        assert sim.pending < 120
        assert sim.cancelled_pending * 2 <= sim.pending
        fired = 0
        while sim.step():
            fired += 1
        assert fired == len(keep)

    def test_no_compaction_below_min_heap_size(self):
        sim = Simulator()
        victims = [sim.after(10 + i, lambda: None) for i in range(20)]
        for h in victims:
            h.cancel()
        assert sim.heap_compactions == 0

    def test_compaction_preserves_firing_order(self):
        sim = Simulator()
        fired = []
        survivors = []
        victims = []
        # Interleave survivors and victims across the timeline so the
        # rebuild has to re-establish heap order over a shuffled residue.
        for i in range(128):
            t = 1_000 + i * 7
            if i % 3 == 0:
                survivors.append(t)
                sim.after(t, fired.append, t)
            else:
                victims.append(sim.after(t, fired.append, -t))
        for h in victims:
            h.cancel()
        assert sim.heap_compactions >= 1
        sim.run()
        assert fired == sorted(survivors)

    def test_compaction_mid_run_keeps_run_loop_alive(self):
        sim = Simulator()
        fired = []
        victims = [sim.after(50_000 + i, lambda: None) for i in range(100)]

        def cancel_all():
            for h in victims:
                h.cancel()

        sim.after(10, cancel_all)
        sim.after(20, fired.append, "after-compaction")
        sim.run()
        # run() holds a local alias to the heap; in-place compaction must
        # not orphan it.
        assert sim.heap_compactions >= 1
        assert fired == ["after-compaction"]
        assert sim.pending == 0


class TestFarFutureOrdering:
    """Events milliseconds ahead share the heap with events nanoseconds
    ahead; neither distance nor cancellation may perturb (time, seq)
    order."""

    def test_far_future_events_fire_in_order(self):
        sim = Simulator()
        fired = []
        times = [10, 2_097_151, 2_097_157, 6_291_473]
        for t in times:
            sim.after(t, fired.append, t)
        sim.run()
        assert fired == sorted(times)

    def test_events_many_ms_apart_fire_in_order(self):
        sim = Simulator()
        fired = []
        times = [2_097_159 * k for k in range(1, 9)]
        for t in times:
            sim.after(t, fired.append, t)
        sim.after(5, fired.append, 5)
        sim.run()
        assert fired == sorted(times + [5])

    def test_cancel_heavy_far_future_schedule(self):
        sim = Simulator()
        fired = []
        survivors = []
        victims = []
        # Spread over ~6.3 ms; cancel two thirds. Compaction must keep
        # every live entry and the survivors must fire in time order.
        for i in range(180):
            t = 1_000 + i * 34_952
            if i % 3 == 0:
                survivors.append(t)
                sim.after(t, fired.append, t)
            else:
                victims.append(sim.after(t, fired.append, -t))
        for h in victims:
            h.cancel()
        assert sim.heap_compactions >= 1
        sim.run()
        assert fired == sorted(survivors)
        assert sim.pending == 0

    def test_adjacent_times_fire_in_order(self):
        sim = Simulator()
        fired = []
        for t in (1_027, 1_025, 1_026, 1_024):
            sim.after(t, fired.append, t)
        sim.run()
        assert fired == [1_024, 1_025, 1_026, 1_027]

    def test_cancelled_far_head_does_not_block_later_events(self):
        sim = Simulator()
        fired = []
        head = sim.after(4_194_304, fired.append, "cancelled")
        sim.after(4_194_314, fired.append, "live")
        head.cancel()
        sim.run()
        assert fired == ["live"]
        assert sim.pending == 0
