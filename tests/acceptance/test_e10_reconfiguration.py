"""E10 — §3/§4.4/§5: reconfiguration latency and a year of policy churn."""

import pytest

from repro import units
from repro.experiments.e10_reconfiguration import (
    churn_rows,
    measure_kopi_config_update,
    measure_kopi_feature_update,
    run_e10,
)


@pytest.mark.slow
def test_e10_update_latencies():
    by_target = {r["target"]: r for r in run_e10()}
    # Config changes are microseconds everywhere that supports them.
    assert by_target["kopi (overlay)"]["config_update_us"] < 1_000
    # Feature changes: possible on KOPI (seconds), impossible on fixed NICs.
    assert "hardware revision" in by_target["fixed-function NIC"]["feature_update"]
    assert "bitstream" in by_target["kopi (overlay)"]["feature_update"]


@pytest.mark.slow
def test_e10_bitstream_outage_measured():
    result = measure_kopi_feature_update()
    assert result["offline_ns"] >= 2 * units.SEC
    assert result["drops"] > 0  # live traffic is lost while offline


def test_e10_overlay_is_fast():
    latency = measure_kopi_config_update()
    assert 0 < latency < units.MS
    assert latency < 200 * units.US


def test_e10_churn():
    rows = churn_rows()
    assert sum(r["unsupported"] for r in rows) > 0
    ff = next(r for r in rows if "fixed" in r["target"])
    assert ff["unsupported"] > 0
    kopi = next(r for r in rows if "kopi" in r["target"])
    assert kopi["unsupported"] == 0
    kernel = next(r for r in rows if "kernel" in r["target"])
    assert kernel["unsupported"] == 0
