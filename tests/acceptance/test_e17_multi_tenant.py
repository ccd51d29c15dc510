"""E17 — multi-tenant isolation: the per-tenant scheduler must hold the
noisy neighbor's interference to the pinned bound.

Replays the three-leg noisy-neighbor experiment (victims solo, contended
against a closed-loop hog with FIFO egress, contended with the per-tenant
DRR scheduler + quotas) at a reduced tenant count and asserts the
isolation contract:

* with isolation ON, pooled victim p99 stays within ``ISOLATION_FACTOR``
  (2x) of the solo baseline while the hog still carries the bulk of the
  delivered packets;
* with isolation OFF, the same contention degrades victim p99 by far
  more than the bound (typically orders of magnitude — the off leg also
  drops most victim traffic on the saturated FIFO);
* the E16 stage spine agrees about *where* the interference lands
  (qdisc queue-wait) and that the scheduler removes that stage.
"""

import pytest

from repro.experiments.e17_multi_tenant import ISOLATION_FACTOR, run_e17

#: Large enough that the off leg saturates and the DRR round spans dozens
#: of classes, small enough to replay in seconds.
N_VICTIMS = 40
VICTIM_COUNT = 25


@pytest.mark.slow
def test_e17_multi_tenant():
    h = run_e17(n_victims=N_VICTIMS, victim_count=VICTIM_COUNT)["headline"]
    # Acceptance: the isolation contract, both directions. run_e17
    # asserts these itself; restate the headline bounds here so a
    # regression reads as numbers, not a deep traceback.
    assert h["on_p99_x_solo"] <= ISOLATION_FACTOR, h
    assert h["off_p99_x_solo"] > ISOLATION_FACTOR, h
    assert h["hog_share_on"] > 0.5, h
    assert h["interference_stage"] == "qdisc", h
