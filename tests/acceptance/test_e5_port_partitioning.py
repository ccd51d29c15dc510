"""E5 — §2 Partitioning ports: violation deliveries per dataplane."""

from repro.experiments.e5_port_partitioning import headline, run_e5


def test_e5_port_partitioning():
    rows = run_e5()
    h = headline(rows)
    by_plane = {r["plane"]: r for r in rows}
    # Unenforceable off-host; enforced on-host.
    assert h["bypass_violations"] > 0
    assert by_plane["bypass"]["violations_delivered"] > 0
    assert by_plane["hypervisor"]["violations_delivered"] > 0
    assert h["kernel_violations"] == 0
    assert h["kopi_violations"] == 0
    assert by_plane["kopi"]["violations_delivered"] == 0
    assert by_plane["sidecar"]["violations_delivered"] == 0
    # KOPI blocks at bind time (kernel arbitration restored).
    assert by_plane["kopi"]["thief_bind_blocked"]
    assert by_plane["kopi"]["legit_served"] > 0
    assert by_plane["kernel"]["legit_served"] > 0
