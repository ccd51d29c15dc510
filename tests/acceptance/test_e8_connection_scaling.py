"""E8 — §5: throughput vs concurrent connections (the DDIO cliff)."""

import pytest

from repro.experiments.e8_connection_scaling import headline, run_e8, run_point


def test_e8_connection_scaling():
    rows = run_e8(packets_per_point=8_192)
    h = headline(rows)
    by_n = {r["connections"]: r for r in rows}
    # Full line rate through 1024 connections — the paper's breaking point.
    assert by_n[1_024]["line_rate_pct"] > 99
    assert by_n[1_024]["llc_miss_rate"] < 0.01
    # Collapse beyond it.
    assert by_n[2_048]["line_rate_pct"] < 90
    assert by_n[4_096]["line_rate_pct"] < by_n[2_048]["line_rate_pct"]
    assert by_n[4_096]["llc_miss_rate"] > 0.3
    assert h["last_full_rate_conns"] == 1_024


def test_small_point_runs_and_fits():
    row = run_point(64, packets_total=1_024)
    assert row["line_rate_pct"] == pytest.approx(100.0)
    assert row["llc_miss_rate"] == 0.0


def test_oversized_point_degrades():
    fit = run_point(512, packets_total=4_096)
    over = run_point(2_048, packets_total=4_096)
    assert over["llc_miss_rate"] > fit["llc_miss_rate"]
    assert over["goodput_gbps"] < fit["goodput_gbps"]


def test_shared_rings_do_not_degrade():
    over = run_point(2_048, packets_total=4_096, shared_rings=True)
    assert over["line_rate_pct"] > 99


def test_analytic_mode_runs():
    row = run_point(256, packets_total=1_024, structural=False)
    assert row["llc_miss_rate"] == -1.0  # no structural cache
    assert row["goodput_gbps"] > 0
