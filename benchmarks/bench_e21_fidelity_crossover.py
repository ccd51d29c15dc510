"""E21 — fidelity-crossover bench: hybrid fast-forward must be invisible
in the observables and decisively faster at scale.

Replays both legs of the crossover experiment and asserts the acceptance
shape:

* Parity: exact and hybrid runs of the *identical* schedule agree — the
  counted observables (delivered, RX, fastpath hits/misses, DMA) match
  exactly, modeled time and every trace stage land within the pinned
  ``FF_TOLERANCE``, and conservation holds on both legs.
* Crossover: at 100k+ connections the hybrid leg delivers packets at
  >= 20x the packet-exact rate (delivered-packets-per-wall-second, exact
  probe measured at the same structure scale).

Writes ``e21_fidelity_crossover.json`` next to the E12–E16 artifacts.
"""

import json
from pathlib import Path

from repro.experiments.common import fmt_table
from repro.experiments.e21_fidelity_crossover import (
    PARITY_COLUMNS,
    headline,
    run_parity,
    run_speedup,
)

ARTIFACT = Path(__file__).parent / "artifacts" / "e21_fidelity_crossover.json"

MIN_SPEEDUP = 20.0


def _crossover():
    parity = run_parity()
    speedup = run_speedup()
    return parity, speedup


def test_e21_fidelity_crossover(once):
    parity, speedup = once(_crossover)
    h = headline(parity, speedup)

    print("\n" + fmt_table(parity["rows"] + parity["stage_rows"],
                           columns=PARITY_COLUMNS))
    print("\n" + fmt_table([speedup]))
    print(f"\nheadline: parity_ok={h['parity_ok']} "
          f"max_rel_err={h['max_rel_err']:.4%} "
          f"fluid={h['fluid_fraction']:.0%} "
          f"speedup={h['speedup']:.1f}x @ {h['connections']:,} conns")

    # Acceptance: fidelity is invisible, and fast-forward actually pays.
    assert parity["ok"], parity["rows"] + parity["stage_rows"]
    for row in parity["rows"]:
        assert row["ok"], row
    # The hybrid leg really went fluid (warmup packets stay exact, so the
    # default 16-packet-per-flow parity schedule tops out under 50%).
    assert parity["fluid_fraction"] > 0.25
    assert speedup["promoted"] == speedup["connections"]
    assert speedup["speedup"] >= MIN_SPEEDUP, speedup

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(
        json.dumps(
            {"headline": h, "parity": parity["rows"],
             "stages": parity["stage_rows"], "speedup": speedup,
             "ff": parity["ff"]},
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {ARTIFACT}")
