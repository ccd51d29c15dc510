"""E18 — cluster scale-out: live flow migration must be loss-free and
re-steering a hot backend must actually pay.

* Conservation: the live-migration run of the *identical* client→VIP
  schedule matches the no-migration run on every cluster-summed
  observable — delivered messages (total and per-flow), NIC and switch
  frame meters, and conntrack packet/byte totals summed across all
  backends — exactly, with the migrated flow's count fully accounted for
  by the protocol's snapshot + delta copies.
* Rebalance: migrating the elephant flow off the hot backend cuts the
  victim mice's p99 latency by >= ``MIN_P99_IMPROVEMENT`` versus the
  no-migration leg, with every mouse still delivered.
"""

from repro.experiments.e18_cluster import (
    MIN_P99_IMPROVEMENT,
    headline,
    run_parity,
    run_rebalance_pair,
)


def test_e18_cluster():
    parity = run_parity()
    rebalance = run_rebalance_pair()
    h = headline(parity, rebalance)

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
