"""E22 — group fast-forward bench: one epoch per group must stay exact.

Replays the group fast-forward parity experiment and asserts the
acceptance shape: exact and hybrid runs of the *identical* RX+TX schedule
agree — the counted observables (the E21 RX set plus the TX set: NIC
tx_pkts, peer rx counters, egress sent, qdisc enqueued/emitted, doorbell
MMIO writes, the TX DMA ledger) match exactly, modeled time and every
trace stage land within the pinned ``FF_TOLERANCE``, conservation holds
on both legs, and grouping actually engaged (>= 2 groups, >= 1 group
epoch).

Writes ``e22_group_fastforward.json`` next to the earlier artifacts.
"""

import json
from pathlib import Path

from repro.experiments.common import fmt_table
from repro.experiments.e21_fidelity_crossover import (
    PARITY_COLUMNS,
    run_parity as run_e21_parity,
)
from repro.experiments.e22_group_fastforward import headline, run_parity

ARTIFACT = Path(__file__).parent / "artifacts" / "e22_group_fastforward.json"


def test_e22_group_fastforward(once):
    parity = once(run_parity)
    h = headline(parity)

    print("\n" + fmt_table(parity["rows"] + parity["stage_rows"],
                           columns=PARITY_COLUMNS))
    print(f"\nheadline: parity_ok={h['parity_ok']} "
          f"max_rel_err={h['max_rel_err']:.4%} "
          f"fluid={h['fluid_fraction']:.0%} grouped={h['grouped']}")

    # Acceptance: grouping and TX fast-forward are invisible in every
    # counted observable.
    assert parity["ok"], parity["rows"] + parity["stage_rows"]
    for row in parity["rows"]:
        assert row["ok"], row
    assert parity["grouped"], parity["ff"]
    assert parity["fluid_fraction"] > 0.25

    # The E21 parity leg (RX-only, through the same engine) must still
    # report zero error.
    e21_parity = run_e21_parity()
    assert e21_parity["ok"], e21_parity["rows"]
    e21_max_err = max(float(r["rel_err"])
                      for r in e21_parity["rows"] + e21_parity["stage_rows"])
    print(f"e21 parity still exact: max_rel_err={e21_max_err:.4%}")
    assert e21_max_err == 0.0

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(
        json.dumps(
            {"headline": h, "parity": parity["rows"],
             "stages": parity["stage_rows"],
             "ff": parity["ff"], "e21_max_rel_err": e21_max_err},
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {ARTIFACT}")
