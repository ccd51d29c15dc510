"""E23 — rack-scale fast-forward bench: end-to-end fluid epochs across
the switch hop must stay exact and beat demote-at-wire decisively.

Replays both legs of the rack fast-forward experiment and asserts the
acceptance shape:

* Parity: exact and cross-machine-fluid runs of the *identical*
  A→switch→B schedule agree — every counted observable (both hosts' NIC
  and verdict-cache counters, doorbell MMIO writes, both copy ledgers,
  qdisc transit, switch frames/floods, both links' packet and byte
  meters) matches exactly, modeled CPU time and every per-host trace
  stage land within the pinned ``FF_TOLERANCE``, per-host span
  conservation agrees between legs, and every connection actually bound
  end-to-end.
* Crossover: at 10k+ cross-host connections the end-to-end fluid engine
  runs >= 5x faster (packets per wall-second) than the previous best —
  the demote-at-wire engine (per-host fast-forward with
  ``ff_cross_machine`` off).

Writes ``e23_rack_fastforward.json`` (including the cross-host micro-opt
before/after note).
"""

import json
from pathlib import Path

from repro.experiments.common import fmt_table
from repro.experiments.e21_fidelity_crossover import (
    PARITY_COLUMNS,
    run_parity as run_e21_parity,
)
from repro.experiments.e23_rack_fastforward import (
    headline,
    run_crossover,
    run_parity,
)

ARTIFACT = Path(__file__).parent / "artifacts" / "e23_rack_fastforward.json"

MIN_RACK_SPEEDUP = 5.0

#: Satellite 1 (micro-opt) before/after, measured on an isolated
#: uplink→switch→downlink hop (200k pre-built frames, best of 4) at the
#: commit boundaries of this PR. The end-to-end two-stack path is
#: dominated by the host stacks and showed no change beyond noise.
MICRO_OPT_NOTE = {
    "what": "hoisted per-frame metric/attr lookups in L2Switch._forward "
            "and Link.send/_deliver",
    "isolated_hop_ns_per_pkt_before": 7740,
    "isolated_hop_ns_per_pkt_after": 6590,
    "isolated_hop_method": "uplink.send -> switch._forward -> downlink, "
                           "200k frames, best of 4 runs",
    "end_to_end_ns_per_pkt": "~100k (two full stacks; unchanged within "
                             "noise)",
}


def _e23():
    parity = run_parity()
    speedup = run_crossover()
    return parity, speedup


def test_e23_rack_fastforward(once):
    parity, speedup = once(_e23)
    h = headline(parity, speedup)

    print("\n" + fmt_table(parity["rows"] + parity["stage_rows"],
                           columns=PARITY_COLUMNS))
    print("\n" + fmt_table([speedup]))
    print(f"\nheadline: parity_ok={h['parity_ok']} "
          f"max_rel_err={h['max_rel_err']:.4%} "
          f"fluid={h['fluid_fraction']:.0%} "
          f"rack speedup={h['speedup']:.1f}x @ {h['connections']:,} conns "
          f"({h['bound']:,} bound)")

    # Acceptance: the cross-machine epoch is invisible in every counted
    # observable on both machines and the switch between them...
    assert parity["ok"], parity["rows"] + parity["stage_rows"]
    for row in parity["rows"]:
        assert row["ok"], row
    assert parity["conserved_ok"]
    assert parity["bound_ok"], parity["rack"]
    assert parity["fluid_fraction"] > 0.5
    assert h["max_rel_err"] == 0.0 or h["max_rel_err"] <= parity["tolerance"]
    # ...and absorbing the switch hop actually pays at rack scale.
    assert speedup["bound"] == speedup["connections"], speedup
    assert speedup["speedup"] >= MIN_RACK_SPEEDUP, speedup

    # The single-host parity leg (E21, same engine underneath) must still
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
             "stages": parity["stage_rows"], "speedup": speedup,
             "rack": parity["rack"], "e21_max_rel_err": e21_max_err,
             "micro_opt": MICRO_OPT_NOTE},
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {ARTIFACT}")
