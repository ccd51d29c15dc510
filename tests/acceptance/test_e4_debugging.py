"""E4 — §2 Debugging: operator actions to find the ARP flooder."""

from repro.experiments.e4_debugging import headline, run_e4


def test_e4_debugging():
    rows = run_e4()
    h = headline(rows)
    # O(n) inspection under bypass vs O(1) attributed capture under KOPI.
    assert h["kopi_actions"] == 1
    assert h["bypass_actions"] > 5
    kopi_rows = [r for r in rows if r["plane"] == "kopi"]
    assert all(r["identified"] for r in kopi_rows)
    # Bypass actions grow with the number of applications.
    bypass_actions = [r["operator_actions"] for r in rows if r["plane"] == "bypass"]
    assert bypass_actions == sorted(bypass_actions)


def test_kopi_constant_actions_at_small_scale():
    rows = run_e4(n_apps_sweep=(4, 8), seed=2)
    kopi = [r for r in rows if r["plane"] == "kopi"]
    assert all(r["operator_actions"] == 1 for r in kopi)
    bypass = [r["operator_actions"] for r in rows if r["plane"] == "bypass"]
    assert max(bypass) > 1
