"""E14 — policy churn: commit latency per plane, stale window, drops.

* Kernel and sidecar installs are synchronous — the engine records the
  modeled ~10 us write and **zero** stale evaluations, at every churn rate.
* KOPI commits are ~50 us overlay loads; at the fastest churn the engine
  counts packets that ran under the previous program (stale but atomic).
* Bitstream-granularity commits take ~2 s with the NIC offline — ingress
  drops on the floor — while overlay-granularity commits never stop
  traffic. That contrast is the §4.4 argument in one table.
"""

from repro.experiments.e14_policy_churn import headline, run_e14, run_e14_upgrade


def test_e14_policy_churn():
    rows = run_e14(count=200, intervals=(None, 50_000, 10_000))
    h = headline(rows)

    # Acceptance: synchronous planes never run a packet on stale policy and
    # pay the modeled kernel write (~10 us) per commit.
    assert h["sync_planes_stale_evals"] == 0
    assert 9.0 <= h["sync_install_us_mean"] <= 11.0
    # KOPI's enforcing copy is an overlay slot: every commit is an async
    # ~50 us load, and at the fastest churn some packets run stale.
    assert h["kopi_install_us_mean"] >= 50.0
    # Churn is an unrelated rule: goodput barely moves on any plane.
    assert h["max_goodput_delta_pct"] < 5.0

    churn = [r for r in rows if r["interval_us"]]
    for row in churn:
        assert row["commits"] > 0, row
        if row["plane"] in ("kernel", "sidecar"):
            assert row["stale_evals"] == 0, row

    by_mech = {r["mechanism"]: r for r in run_e14_upgrade()}
    overlay = by_mech["overlay load"]
    bitstream = by_mech["bitstream upgrade"]
    # Overlay loads commit in ~50 us without dropping a single arrival.
    assert overlay["commit_ms"] < 1.0
    assert overlay["offline_rx_drops"] == 0
    # A full image replacement is one ~2 s commit with the NIC offline.
    assert bitstream["commit_ms"] >= 2_000.0
    assert bitstream["offline_rx_drops"] > 0
