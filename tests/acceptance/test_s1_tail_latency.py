"""S1 (supplementary) — RPC round-trip latency across dataplanes."""

from repro.experiments.s1_tail_latency import headline, run_s1


def test_s1_tail_latency():
    rows = run_s1(count=100)
    h = headline(rows)
    # The kernel pays for syscalls+copies on every RPC.
    assert h["kernel_vs_kopi_poll_p99"] > 2
    # Interposition on the NIC costs a fraction of a microsecond.
    assert h["kopi_poll_vs_bypass_p99"] < 1.3
    # Blocking is a bounded, optional premium (interrupt + sched + switch).
    assert 2 < h["kopi_blocking_premium_us"] < 15
    assert all(r["completed"] == 100 for r in rows)
