"""Property-based tests on the simulation engine's ordering guarantees."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator


class TestEngineOrdering:
    @given(delays=st.lists(st.integers(0, 10_000), min_size=1, max_size=100))
    @settings(max_examples=100)
    def test_events_fire_in_nondecreasing_time(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.after(d, lambda d=d: fired.append((sim.now, d)))
        sim.run()
        times = [t for t, _d in fired]
        assert times == sorted(times)
        assert len(fired) == len(delays)
        for t, d in fired:
            assert t == d  # each fired exactly at its scheduled time

    @given(delays=st.lists(st.integers(0, 100), min_size=2, max_size=60))
    @settings(max_examples=100)
    def test_ties_fifo(self, delays):
        """Events at the same timestamp fire in insertion order."""
        sim = Simulator()
        fired = []
        for i, d in enumerate(delays):
            sim.after(d, lambda i=i: fired.append(i))
        sim.run()
        # Stable sort of indices by delay must equal the fire order.
        expected = [i for i, _d in sorted(enumerate(delays), key=lambda x: x[1])]
        assert fired == expected

    @given(
        delays=st.lists(st.integers(1, 1_000), min_size=1, max_size=50),
        cancel_mask=st.lists(st.booleans(), min_size=1, max_size=50),
    )
    @settings(max_examples=100)
    def test_cancelled_events_never_fire(self, delays, cancel_mask):
        sim = Simulator()
        fired = []
        handles = []
        for i, d in enumerate(delays):
            handles.append(sim.after(d, lambda i=i: fired.append(i)))
        for handle, cancel in zip(handles, cancel_mask):
            if cancel:
                handle.cancel()
        sim.run()
        cancelled = {i for i, c in enumerate(zip(handles, cancel_mask)) if c[1]}
        assert set(fired).isdisjoint(cancelled)
        assert len(fired) == len(delays) - len(
            [1 for h, c in zip(handles, cancel_mask) if c]
        )

    @given(
        first=st.lists(st.integers(0, 500), min_size=1, max_size=30),
        nested=st.integers(0, 500),
    )
    @settings(max_examples=50)
    def test_nested_scheduling_preserves_order(self, first, nested):
        """Events scheduled from inside callbacks still fire in time order."""
        sim = Simulator()
        fired = []

        def outer(d):
            fired.append(sim.now)
            sim.after(nested, lambda: fired.append(sim.now))

        for d in first:
            sim.after(d, outer, d)
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == 2 * len(first)


class TestHeapCompaction:
    """Lazy-cancel heap compaction must be invisible: firing order, FIFO
    ties, and the ``cancelled_pending`` books survive arbitrary
    schedule/cancel/peek/step interleavings straddling
    ``COMPACT_MIN_HEAP``, including cancels of handles that already fired."""

    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["sched", "cancel", "peek", "step"]),
                st.integers(0, 5_000),
            ),
            min_size=2 * Simulator.COMPACT_MIN_HEAP,
            max_size=5 * Simulator.COMPACT_MIN_HEAP,
        )
    )
    @settings(max_examples=60)
    def test_interleaved_cancels_preserve_semantics(self, ops):
        sim = Simulator()
        fired = []
        handles = []          # (index, absolute time, handle) in schedule order
        cancelled = set()     # cancelled before they fired
        done = set()          # fired

        def live():
            return sorted(
                (t, i) for i, t, _h in handles if i not in cancelled and i not in done
            )

        for op, val in ops:
            if op == "sched" or not handles:
                i = len(handles)
                handles.append((i, sim.now + val, sim.after(val, fired.append, i)))
            elif op == "cancel":
                i, _t, h = handles[val % len(handles)]
                # May repeat, or hit a handle that already fired: cancel()
                # must be idempotent and a fired handle's cancel a no-op.
                h.cancel()
                if i not in done:
                    cancelled.add(i)
            elif op == "step":
                nxt = live()
                assert sim.step() == bool(nxt)
                if nxt:
                    t, i = nxt[0]
                    assert fired[-1] == i and sim.now == t
                    done.add(i)
            else:
                # peek() drains cancelled heap heads as a side effect; it
                # must report the next *live* timestamp and keep the books
                # balanced.
                nxt = live()
                assert sim.peek() == (nxt[0][0] if nxt else None)
            # The books at every step: pending counts lazily-cancelled
            # entries still in the heap, so live = pending - cancelled.
            assert 0 <= sim.cancelled_pending <= sim.pending
            assert (
                sim.pending - sim.cancelled_pending
                == len(handles) - len(cancelled) - len(done)
            )
        sim.run()
        assert sim.pending == 0
        assert sim.cancelled_pending == 0
        # Time order with FIFO ties == stable sort of survivors by time,
        # no matter how many compactions rebuilt the heap along the way.
        survivors = sorted((t, i) for i, t, _h in handles if i not in cancelled)
        assert fired == [i for _t, i in survivors]

    def test_compaction_fires_and_preserves_order(self):
        """Deterministic companion: force a compaction past the 50%%
        cancelled threshold and check the survivors still fire in order."""
        sim = Simulator()
        fired = []
        n = 100
        handles = [
            sim.after(1_000 - i, lambda i=i: fired.append(i)) for i in range(n)
        ]
        for h in handles[:70]:
            h.cancel()
        assert sim.heap_compactions >= 1
        assert sim.pending - sim.cancelled_pending == 30
        sim.run()
        # Survivors i=70..99 have delays 930..901: descending index order.
        assert fired == list(range(n - 1, 69, -1))
        assert sim.pending == 0
        assert sim.cancelled_pending == 0


class TestFarFutureOrderingProperties:
    """Delays of several ms share the heap with short ones, and compaction
    runs over them — none of which may perturb (time, seq) order."""

    @given(
        delays=st.lists(
            st.integers(0, 10_485_760),
            min_size=1, max_size=80,
        )
    )
    @settings(max_examples=60)
    def test_order_holds_over_far_future_delays(self, delays):
        sim = Simulator()
        fired = []
        for i, d in enumerate(delays):
            sim.after(d, fired.append, (d, i))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        delays=st.lists(
            st.integers(1, 10_485_760),
            min_size=2 * Simulator.COMPACT_MIN_HEAP,
            max_size=3 * Simulator.COMPACT_MIN_HEAP,
        ),
        cancel_mask=st.lists(st.booleans(), min_size=1, max_size=192),
    )
    @settings(max_examples=40)
    def test_cancels_over_far_future_delays_never_fire(self, delays, cancel_mask):
        sim = Simulator()
        fired = []
        handles = []
        for i, d in enumerate(delays):
            handles.append((i, sim.after(d, fired.append, i)))
        dropped = set()
        for j, flag in enumerate(cancel_mask):
            if flag and handles:
                i, h = handles[j % len(handles)]
                h.cancel()
                dropped.add(i)
        sim.run()
        assert set(fired) == set(range(len(delays))) - dropped
        assert sim.pending == 0
