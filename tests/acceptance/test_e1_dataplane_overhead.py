"""E1 — §1 overhead claim: kernel stack ≪ bypass ≈ KOPI."""

from repro.experiments.e1_dataplane_overhead import headline, run_e1


def test_e1_dataplane_overhead():
    h = headline(run_e1(count=200))
    # Paper shape: kernel an order of magnitude costlier; KOPI ~ bypass.
    assert h["kernel_vs_bypass_cpu_ratio"] > 5
    assert h["kopi_vs_bypass_cpu_ratio"] < 1.5
    assert h["kopi_goodput_gbps"] > 5 * h["kernel_goodput_gbps"]


def test_kernel_slower_than_kopi_at_small_scale():
    rows = run_e1(count=30, payloads=(1_458,))
    by_plane = {r["plane"]: r for r in rows}
    assert (by_plane["kernel"]["app_cpu_ns_per_pkt"]
            > 3 * by_plane["kopi"]["app_cpu_ns_per_pkt"])
    assert by_plane["kopi"]["goodput_gbps"] > by_plane["kernel"]["goodput_gbps"]
