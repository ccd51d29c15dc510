"""E17 — multi-tenant isolation bench: the per-tenant scheduler must hold
the noisy neighbor's interference to the pinned bound.

Replays the three-leg noisy-neighbor experiment (victims solo, contended
against a closed-loop hog with FIFO egress, contended with the per-tenant
DRR scheduler + quotas) at a CI-sized tenant count and asserts the
isolation contract:

* with isolation ON, pooled victim p99 stays within ``ISOLATION_FACTOR``
  (2x) of the solo baseline while the hog still carries the bulk of the
  delivered packets;
* with isolation OFF, the same contention degrades victim p99 by far
  more than the bound (typically orders of magnitude — the off leg also
  drops most victim traffic on the saturated FIFO);
* the E16 stage spine agrees about *where* the interference lands
  (qdisc queue-wait) and that the scheduler removes that stage.

Writes ``e17_multi_tenant.json`` next to the earlier artifacts.
"""

import json
from pathlib import Path

from repro.experiments.common import fmt_table
from repro.experiments.e17_multi_tenant import (
    ISOLATION_FACTOR,
    run_e17,
    tenant_pressure_rows,
)

ARTIFACT = Path(__file__).parent / "artifacts" / "e17_multi_tenant.json"

#: CI-sized tenant count: large enough that the off leg saturates and the
#: DRR round spans dozens of classes, small enough to replay in seconds.
N_VICTIMS = 40
VICTIM_COUNT = 25


def _e17():
    return run_e17(n_victims=N_VICTIMS, victim_count=VICTIM_COUNT)


def test_e17_multi_tenant(once):
    result = once(_e17)
    h = result["headline"]

    print("\n" + fmt_table(result["rows"]))
    print("\n" + fmt_table(result["stage_rows"]))
    print("\n" + fmt_table(tenant_pressure_rows(
        result["legs"]["contended_on"])[:8]))
    print(f"\nheadline: solo p99 {h['solo_p99_us']:.1f}us, "
          f"off {h['off_p99_x_solo']:.0f}x solo, "
          f"on {h['on_p99_x_solo']:.2f}x solo "
          f"(bound {ISOLATION_FACTOR}x), "
          f"hog share {h['hog_share_on']:.0%}, "
          f"interference in {h['interference_stage']!r}")

    # Acceptance: the isolation contract, both directions. run_e17
    # asserts these itself; restate the headline bounds here so a bench
    # regression reads as numbers, not a deep traceback.
    assert h["on_p99_x_solo"] <= ISOLATION_FACTOR, h
    assert h["off_p99_x_solo"] > ISOLATION_FACTOR, h
    assert h["hog_share_on"] > 0.5, h
    assert h["interference_stage"] == "qdisc", h

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(
        json.dumps(
            {"headline": h, "rows": result["rows"],
             "stages": result["stage_rows"],
             "pressure": tenant_pressure_rows(
                 result["legs"]["contended_on"])},
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {ARTIFACT}")
