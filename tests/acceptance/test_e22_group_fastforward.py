"""E22 — group fast-forward: one epoch per group must stay exact.

Exact and hybrid runs of the *identical* RX+TX schedule agree — the
counted observables (the E21 RX set plus the TX set: NIC tx_pkts, peer rx
counters, egress sent, qdisc enqueued/emitted, doorbell MMIO writes, the
TX DMA ledger) match exactly, modeled time and every trace stage land
within the pinned ``FF_TOLERANCE``, conservation holds on both legs, and
grouping actually engaged (>= 2 groups, >= 1 group epoch).
"""

from repro.experiments.e22_group_fastforward import run_parity


def test_e22_parity():
    parity = run_parity()
    # Acceptance: grouping and TX fast-forward are invisible in every
    # counted observable.
    assert parity["ok"], parity["rows"] + parity["stage_rows"]
    for row in parity["rows"]:
        assert row["ok"], row
    assert parity["grouped"], parity["ff"]
    assert parity["fluid_fraction"] > 0.25
