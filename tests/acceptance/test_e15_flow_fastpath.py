"""E15 — flow fast path: hit rates and verdict parity.

* Steady-state traffic hits the cache ≥ 90% of the time on every plane,
  and the kernel path's slow-path filter evaluations collapse to ~one
  per flow — with delivery byte-identical to the cache-off run.
* Policy churn degrades the hit rate toward the packet interval (each
  commit lazily invalidates the whole cache).
* At the E8 connection-scaling point the cache hits at steady state and
  the simulated goodput does not move.
"""

from repro.experiments.e15_flow_fastpath import (
    headline,
    run_e8_cache_parity,
    run_e15_churn,
    run_e15_planes,
)


def test_e15_flow_fastpath():
    plane_rows = run_e15_planes(count=192)
    h = headline(plane_rows, run_e15_churn(count=192))

    # Acceptance: ≥ 90% hits at steady state and an order of magnitude
    # fewer slow-path filter evaluations on the kernel path.
    assert h["kernel_hit_rate"] >= 0.9
    assert h["kernel_evals_on"] * 10 <= h["kernel_evals_off"]
    for row in plane_rows:
        assert row["hit_rate"] >= 0.9, row
    # Churn: every commit invalidates, so the fastest toggle rate must
    # show a strictly lower hit rate than the no-churn baseline.
    assert h["churn_hit_rate"] < h["steady_state_hit_rate"]

    # The E8 point: 8192 packets over 512 conns = 16 per flow, the
    # steady-state regime (one compulsory miss per flow, then hits).
    parity = run_e8_cache_parity(n_conns=512, packets_total=8_192)
    assert parity["hit_rate"] >= 0.9
    # Simulated physics must not move: the cache only elides re-walks.
    assert parity["goodput_on_gbps"] == parity["goodput_off_gbps"]
