"""F1 — Figure 1: every architecture arrow verified by live trace."""

from repro.experiments.f1_architecture import run_f1


def test_f1_architecture_paths():
    rows = run_f1()
    assert len(rows) == 7
    assert all(r["verified"] for r in rows)
