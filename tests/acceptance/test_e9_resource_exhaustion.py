"""E9 — §5: NIC SRAM exhaustion and the software fallback."""

from repro.experiments.e9_resource_exhaustion import (
    run_adversary,
    run_capacity_sweep,
    run_fallback_penalty,
)


def test_e9_capacity_sweep():
    rows = run_capacity_sweep()
    # Fallback fraction grows once offered connections exceed SRAM capacity.
    for r in rows:
        capacity = r["fast_path"] + 0  # fast path never exceeds SRAM slots
        assert capacity <= r["offered_conns"]
        if r["offered_conns"] <= r["sram_kib"] * 1024 // 320:
            assert r["fallback"] == 0
    # Fallback grows monotonically with offered connections per SRAM size.
    for sram in {r["sram_kib"] for r in rows}:
        sub = sorted((r for r in rows if r["sram_kib"] == sram),
                     key=lambda r: r["offered_conns"])
        fallbacks = [r["fallback"] for r in sub]
        assert fallbacks == sorted(fallbacks)


def test_e9_fallback_penalty():
    rows = run_fallback_penalty(count=150)
    fast = next(r for r in rows if r["path"] == "fast path")
    slow = next(r for r in rows if r["path"] == "fallback")
    assert not fast["fallback"] and slow["fallback"]
    # Degraded (kernel-path class), not dead.
    assert slow["goodput_gbps"] > 1
    assert fast["goodput_gbps"] > 5 * slow["goodput_gbps"]


def test_fallback_penalty_at_small_scale():
    rows = run_fallback_penalty(count=40)
    fast = next(r for r in rows if r["path"] == "fast path")
    slow = next(r for r in rows if r["path"] == "fallback")
    assert fast["goodput_gbps"] > slow["goodput_gbps"]


def test_e9_adversary():
    rows = run_adversary()
    assert rows[0]["victim_on_fallback"] and not rows[1]["victim_on_fallback"]
    attack = next(r for r in rows if r["phase"] == "under attack")
    fixed = next(r for r in rows if r["phase"] == "after mitigation")
    assert attack["victim_on_fallback"]
    assert not fixed["victim_on_fallback"]
