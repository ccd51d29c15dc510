"""E11 — §5 ablation: shared rings flatten the connection-scaling cliff."""

import pytest

from repro.experiments.e11_shared_rings import headline, run_e11


@pytest.mark.slow
def test_e11_shared_rings():
    rows = run_e11(packets_per_point=8_192)
    h = headline(rows)
    per_conn = {r["connections"]: r for r in rows if r["mode"] == "per-conn"}
    shared = {r["connections"]: r for r in rows if r["mode"] == "shared"}
    # Shared mode holds line rate at every point.
    assert all(r["line_rate_pct"] > 99 for r in shared.values())
    # Per-connection mode collapses at the top of the sweep.
    assert per_conn[4_096]["line_rate_pct"] < 90
    assert h["shared_goodput_gbps"] > h["per_conn_goodput_gbps"]
    # The price: the hot set no longer scales with connections because the
    # rings are no longer per-connection.
    assert shared[4_096]["hot_set_mib"] < 1


def test_shared_mode_flat_at_one_point():
    rows = run_e11(sweep=(2_048,), packets_per_point=2_048)
    shared = next(r for r in rows if r["mode"] == "shared")
    per_conn = next(r for r in rows if r["mode"] == "per-conn")
    assert shared["goodput_gbps"] >= per_conn["goodput_gbps"]
