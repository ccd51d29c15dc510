"""E6 — §2 Process scheduling: polling burns cores, blocking doesn't."""

import pytest

from repro.experiments.e6_blocking_io import headline, run_e6


@pytest.mark.slow
def test_e6_blocking_io():
    rows = run_e6()
    h = headline(rows)
    # Polling pegs the core regardless of load; blocking tracks load.
    assert h["bypass_poll_util_pct"] > 95
    assert h["kopi_block_util_pct"] < 2
    # Everyone served everything — efficiency, not starvation.
    assert all(r["served"] == 30 for r in rows)
    # Blocking pays a bounded wake latency (microseconds, not ms).
    block_rows = [r for r in rows if r["mode"] == "block"]
    assert all(0 < r["dispatch_us_p50"] < 50 for r in block_rows)


def test_polling_vs_blocking_at_one_gap():
    rows = run_e6(gaps_ns=(500_000,), n_messages=8)
    by_mode = {(r["plane"], r["mode"]): r for r in rows}
    assert by_mode[("bypass", "poll (forced)")]["core_util_pct"] > 90
    assert by_mode[("kopi", "block")]["core_util_pct"] < 10
