"""E18 — cluster scale-out bench: live flow migration must be loss-free
and re-steering a hot backend must actually pay.

Replays both legs of the cluster experiment and asserts the acceptance
shape:

* Conservation: the live-migration run of the *identical* client→VIP
  schedule matches the no-migration run on every cluster-summed
  observable — delivered messages (total and per-flow), NIC and switch
  frame meters, and conntrack packet/byte totals summed across all
  backends — exactly, with the migrated flow's count fully accounted for
  by the protocol's snapshot + delta copies.
* Rebalance: migrating the elephant flow off the hot backend cuts the
  victim mice's p99 latency by >= ``MIN_P99_IMPROVEMENT`` versus the
  no-migration leg, with every mouse still delivered.

Writes ``e18_cluster.json``.
"""

import json
from pathlib import Path

from repro.experiments.e18_cluster import (
    MIN_P99_IMPROVEMENT,
    headline,
    run_parity,
    run_rebalance_pair,
)
from repro.experiments.e21_fidelity_crossover import PARITY_COLUMNS
from repro.experiments.common import fmt_table

ARTIFACT = Path(__file__).parent / "artifacts" / "e18_cluster.json"


def _e18():
    parity = run_parity()
    rebalance = run_rebalance_pair()
    return parity, rebalance


def test_e18_cluster(once):
    parity, rebalance = once(_e18)
    h = headline(parity, rebalance)

    print("\n" + fmt_table(parity["rows"], columns=PARITY_COLUMNS))
    print(f"\nheadline: parity_ok={h['parity_ok']} "
          f"max_rel_err={h['max_rel_err']:.4%} "
          f"stale_evals={h['stale_evals']} "
          f"p99 improvement={h['p99_improvement']:.1f}x")

    # Acceptance: migration is invisible in every cluster-summed
    # observable (loss-free, counter-conserving)...
    assert parity["ok"], parity["rows"]
    for row in parity["rows"]:
        assert row["ok"], row
    assert parity["flows_ok"]
    assert parity["migration_done"]
    assert parity["moved_ok"], parity["migration"]
    assert h["max_rel_err"] == 0.0
    # ...the re-steer commit was atomic and live (some packets may land in
    # the stale window, steered by the complete OLD table — never a
    # half-installed one)...
    assert parity["commit_stats"].get("resteers", 0) >= 1
    # ...and moving the elephant actually rescues the victim's tail.
    assert rebalance["complete"], rebalance
    assert rebalance["improvement"] >= MIN_P99_IMPROVEMENT, rebalance

    record = parity["migration"]
    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(
        json.dumps(
            {
                "headline": h,
                "parity": parity["rows"],
                "migration": {
                    "snap_packets": record.snap_packets,
                    "delta_packets": record.delta_packets,
                    "verdicts_replayed": record.verdicts_replayed,
                    "ff_demoted": record.ff_demoted,
                    "commit_ns": record.committed_ns - record.requested_ns,
                    "total_ns": record.finalized_ns - record.requested_ns,
                },
                "rebalance": {
                    "improvement": rebalance["improvement"],
                    "base_p99_post_ns": rebalance["base"]["p99_post_ns"],
                    "mig_p99_post_ns": rebalance["mig"]["p99_post_ns"],
                    "mice_delivered": rebalance["mig"]["mice_delivered"],
                },
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {ARTIFACT}")
