"""Edge cases across small corners of the library."""

import pytest

from repro import units
from repro.config import DEFAULT_COSTS
from repro.errors import ReproError, SimulationError
from repro.sim import SimProcess, Simulator, make_rng
from repro.sim.rand import exponential_ns


class TestRand:
    def test_streams_are_independent(self):
        a = make_rng(1, "arrivals")
        b = make_rng(1, "sizes")
        assert [a.random() for _ in range(3)] != [b.random() for _ in range(3)]

    def test_same_stream_reproduces(self):
        assert make_rng(5, "x").random() == make_rng(5, "x").random()

    def test_none_seed_is_nondeterministic_type(self):
        rng = make_rng(None)
        assert 0 <= rng.random() < 1

    def test_exponential_validation(self):
        with pytest.raises(ValueError):
            exponential_ns(make_rng(0), 0)

    def test_exponential_minimum_one(self):
        rng = make_rng(0)
        assert all(exponential_ns(rng, 0.001) >= 1 for _ in range(10))


class TestTrafficHelpers:
    def test_total_bytes(self):
        from repro.net.traffic import cbr_arrivals, total_bytes

        assert total_bytes(cbr_arrivals(units.GBPS, 100, count=5)) == 500


class TestAppBase:
    def test_double_start_rejected(self):
        from repro.core import NormanOS
        from repro.dataplanes import Testbed
        from repro.apps import SinkServer

        tb = Testbed(NormanOS)
        app = SinkServer(tb, port=7000, comm="s", user="bob", core_id=1).start()
        with pytest.raises(ReproError):
            app.start()
        app.stop()
        tb.run_all()

    def test_app_crash_surfaces(self):
        from repro.core import NormanOS
        from repro.dataplanes import Testbed
        from repro.apps.base import App

        class Crasher(App):
            def run(self):
                yield 10
                raise RuntimeError("app bug")

        tb = Testbed(NormanOS)
        Crasher(tb, comm="crash", user="bob", core_id=1).start()
        with pytest.raises(RuntimeError, match="app bug"):
            tb.run_all()


class TestSnifferSessions:
    def test_multiple_sessions_independent(self):
        from repro.net import Sniffer
        from repro.net import IPv4Address, MacAddress, make_udp

        sim = Simulator()
        sniffer = Sniffer(sim)
        all_pkts = sniffer.start(name="all")
        dns_only = sniffer.start(match=lambda p: p.five_tuple.dport == 53, name="dns")
        pkt = make_udp(MacAddress.from_index(1), MacAddress.from_index(2),
                       IPv4Address.parse("1.1.1.1"), IPv4Address.parse("2.2.2.2"),
                       1000, 80, 10)
        sniffer.mirror(pkt)
        assert len(all_pkts.packets) == 1
        assert len(dns_only.packets) == 0
        all_pkts.stop()
        sniffer.mirror(pkt)
        assert len(all_pkts.packets) == 1  # stopped
        assert sniffer.active_sessions == 1

    def test_stop_is_idempotent(self):
        from repro.net import Sniffer

        session = Sniffer(Simulator()).start()
        session.stop()
        session.stop()


class TestOverlayAluCoverage:
    def run_prog(self, text, expected_verdict):
        from repro.net import IPv4Address, MacAddress, make_udp
        from repro.overlay import OverlayMachine, assemble, verify

        prog = assemble(text)
        verify(prog)
        m = OverlayMachine(prog, DEFAULT_COSTS)
        pkt = make_udp(MacAddress.from_index(1), MacAddress.from_index(2),
                       IPv4Address.parse("1.0.0.1"), IPv4Address.parse("1.0.0.2"),
                       7, 9, 10)
        assert m.execute(pkt, 0).verdict == expected_verdict

    def test_mov_sub_xor(self):
        self.run_prog(
            """
                ldi r0, 100
                mov r1, r0
                sub r1, 58
                xor r1, 42
                jeq r1, 0, ok
                drop
            ok: accept
            """,
            "accept",
        )

    def test_shl_shr_or(self):
        self.run_prog(
            """
                ldi r0, 1
                shl r0, 4
                or r0, 1
                shr r0, 1
                jeq r0, 8, ok
                drop
            ok: accept
            """,
            "accept",
        )

    def test_jgt_jle(self):
        self.run_prog(
            """
                ldi r0, 5
                jgt r0, 4, a
                drop
            a:  jle r0, 5, ok
                drop
            ok: accept
            """,
            "accept",
        )


class TestQdiscRunnerEdges:
    def test_reset_dropped_counter_on_replace(self):
        from repro.kernel import PfifoQdisc, TbfQdisc
        from repro.kernel.qdisc_runner import PacedQdiscRunner
        from repro.net import IPv4Address, MacAddress, make_udp

        sim = Simulator()
        runner = PacedQdiscRunner(
            sim, TbfQdisc(rate_bps=1_000, burst_bytes=2_000), units.GBPS, lambda p: None
        )
        pkt = make_udp(MacAddress.from_index(1), MacAddress.from_index(2),
                       IPv4Address.parse("1.0.0.1"), IPv4Address.parse("1.0.0.2"),
                       1, 2, 100)
        runner.submit(pkt)
        runner.submit(pkt)
        runner.replace_qdisc(PfifoQdisc())
        assert runner.metrics.counter("reset_dropped").value >= 1


class TestSimEngineEdges:
    def test_peek_on_empty(self):
        assert Simulator().peek() is None

    def test_step_on_empty(self):
        assert Simulator().step() is False

    def test_process_requires_generator_call(self):
        sim = Simulator()

        def gen():
            yield 1

        # Passing the function (not the generator) is a common mistake.
        with pytest.raises(SimulationError):
            SimProcess(sim, gen)  # type: ignore[arg-type]


class TestIfconfigWithoutNic:
    def test_dataplane_without_nic_attribute(self):
        """Ifconfig degrades gracefully when the dataplane has no `nic`."""
        from repro.dataplanes import SidecarDataplane, Testbed
        from repro.tools import Ifconfig

        tb = Testbed(SidecarDataplane)
        out = Ifconfig(tb.dataplane, tb.kernel)()
        assert "inet 10.0.0.1" in out
