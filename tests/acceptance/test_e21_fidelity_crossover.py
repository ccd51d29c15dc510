"""E21 — fidelity crossover: hybrid fast-forward must be invisible in the
observables and decisively faster at scale.

* Parity: exact and hybrid runs of the *identical* schedule agree — the
  counted observables (delivered, RX, fastpath hits/misses, DMA) match
  exactly, modeled time and every trace stage land within the pinned
  ``FF_TOLERANCE``, and conservation holds on both legs.
* Crossover: at 100k+ connections the hybrid leg delivers packets at
  >= 20x the packet-exact rate (delivered-packets-per-wall-second, exact
  probe measured at the same structure scale).
"""

import pytest

from repro.experiments.e21_fidelity_crossover import (
    headline,
    run_parity,
    run_speedup,
)

MIN_SPEEDUP = 20.0


def test_e21_parity():
    parity = run_parity()
    assert parity["ok"], parity["rows"] + parity["stage_rows"]
    for row in parity["rows"]:
        assert row["ok"], row
    # The hybrid leg really went fluid (warmup packets stay exact, so the
    # default 16-packet-per-flow parity schedule tops out under 50%).
    assert parity["fluid_fraction"] > 0.25
    # Every counted and timed observable agrees exactly.
    assert headline(parity, None)["max_rel_err"] == 0.0


@pytest.mark.slow
def test_e21_speedup():
    speedup = run_speedup()
    assert speedup["promoted"] == speedup["connections"]
    assert speedup["speedup"] >= MIN_SPEEDUP, speedup
