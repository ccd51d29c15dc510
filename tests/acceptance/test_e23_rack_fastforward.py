"""E23 — rack-scale fast-forward: end-to-end fluid epochs across the
switch hop must stay exact and beat demote-at-wire decisively.

* Parity: exact and cross-machine-fluid runs of the *identical*
  A→switch→B schedule agree — every counted observable (both hosts' NIC
  and verdict-cache counters, doorbell MMIO writes, both copy ledgers,
  qdisc transit, switch frames/floods, both links' packet and byte
  meters) matches exactly, modeled CPU time and every per-host trace
  stage land within the pinned ``FF_TOLERANCE``, per-host span
  conservation agrees between legs, and every connection actually bound
  end-to-end.
* Crossover: at 10k+ cross-host connections the end-to-end fluid engine
  runs >= 5x faster (packets per wall-second) than the demote-at-wire
  engine (per-host fast-forward with ``ff_cross_machine`` off).
"""

import pytest

from repro.experiments.e23_rack_fastforward import (
    headline,
    run_crossover,
    run_parity,
)

MIN_RACK_SPEEDUP = 5.0


def test_e23_parity():
    parity = run_parity()
    h = headline(parity, None)
    # Acceptance: the cross-machine epoch is invisible in every counted
    # observable on both machines and the switch between them.
    assert parity["ok"], parity["rows"] + parity["stage_rows"]
    for row in parity["rows"]:
        assert row["ok"], row
    assert parity["conserved_ok"]
    assert parity["bound_ok"], parity["rack"]
    assert parity["fluid_fraction"] > 0.5
    assert h["max_rel_err"] == 0.0 or h["max_rel_err"] <= parity["tolerance"]


@pytest.mark.slow
def test_e23_crossover():
    # Absorbing the switch hop actually pays at rack scale.
    speedup = run_crossover()
    assert speedup["bound"] == speedup["connections"], speedup
    assert speedup["speedup"] >= MIN_RACK_SPEEDUP, speedup
