"""E2 — §1: virtual vs physical vs on-path movement, policies active."""

from repro.experiments.e2_interposition_placement import headline, run_e2


def test_e2_interposition_placement():
    rows = run_e2(count=200)
    h = headline(rows)
    by_plane = {r["plane"]: r for r in rows}
    # Both off-path placements cost much more host CPU than on-NIC.
    assert h["kernel_cpu_vs_kopi"] > 5
    assert h["sidecar_cpu_vs_kopi"] > 5
    # KOPI with policies ~= bypass without: interposition became free.
    assert h["kopi_matches_bypass"] < 0.05
    # Movement taxonomy: kernel syscalls per packet, sidecar coherence lines.
    assert by_plane["kernel"]["syscalls_per_pkt"] >= 1
    assert by_plane["sidecar"]["coh_lines_per_pkt"] > 10
    assert by_plane["kopi"]["syscalls_per_pkt"] == 0
    assert by_plane["kopi"]["coh_lines_per_pkt"] == 0


def test_movement_taxonomy_at_small_scale():
    rows = run_e2(count=30)
    by_plane = {r["plane"]: r for r in rows}
    assert by_plane["kernel"]["syscalls_per_pkt"] >= 1
    assert by_plane["sidecar"]["coh_lines_per_pkt"] > 0
    assert by_plane["kopi"]["syscalls_per_pkt"] == 0
