"""Ablation — DDIO sizing: the cliff's location is set by the DDIO slice.

The §5 mechanism predicts the breaking point at
``connections ≈ ddio_capacity / per-connection hot footprint``. Sweeping
``ddio_ways`` (1, 2, 4 of 11) should move the measured cliff proportionally
(512, 1024, 2048 connections with the default 6 KiB footprint) — a strong
check that the model's cliff comes from the claimed mechanism and not from
an artifact.
"""

import pytest

from repro.config import DEFAULT_COSTS
from repro.experiments.e8_connection_scaling import run_point

PACKETS_PER_POINT = 4_096


@pytest.mark.slow
def test_ablation_ddio_ways():
    for ways in (1, 2, 4):
        costs = DEFAULT_COSTS.replace(ddio_ways=ways)
        expected = costs.ddio_capacity_bytes // costs.conn_footprint_bytes
        half, at, double = (
            run_point(n, packets_total=PACKETS_PER_POINT, costs=costs)
            for n in (expected // 2, expected, 2 * expected)
        )
        assert half["llc_miss_rate"] == 0.0
        assert at["llc_miss_rate"] < 0.01
        assert double["llc_miss_rate"] > 0.3  # cliff crossed right where predicted
        assert double["goodput_gbps"] < at["goodput_gbps"]


@pytest.mark.slow
def test_analytic_model_tracks_structural():
    """The closed-form DDIO model and the structural cache agree on the
    miss rate above the cliff (hit ≈ capacity / working set)."""
    for n in (2_048, 4_096):
        structural = run_point(n, packets_total=PACKETS_PER_POINT)
        analytic_hit = min(
            1.0,
            DEFAULT_COSTS.ddio_capacity_bytes
            / (n * DEFAULT_COSTS.conn_footprint_bytes),
        )
        assert abs(structural["llc_miss_rate"] - (1 - analytic_hit)) < 0.05
