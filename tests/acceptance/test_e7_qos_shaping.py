"""E7 — §2 QoS: weighted fair shares only with a process view."""

import pytest

from repro.experiments.e7_qos_shaping import headline, run_e7


@pytest.mark.slow
def test_e7_qos_shaping():
    h = headline(run_e7())
    assert set(h["enforcing_planes"]) == {"kernel", "sidecar", "kopi"}
    # Enforced split is ~25/75; unshaped is far from it.
    assert abs(h["kopi_work_share_pct"] - 75) < 5
    assert abs(h["bypass_work_share_pct"] - 75) > 15
