"""E3 — §2: the four scenarios vs the five architectures."""

from repro.core.capabilities import SCENARIOS
from repro.experiments.e3_capability_matrix import headline, run_e3


def test_e3_capability_matrix():
    scores = headline(run_e3())
    # Paper's table: kernel, sidecar, KOPI support all; bypass none;
    # hypervisor none of the four (global view without process view).
    n = len(SCENARIOS)
    assert scores["kernel"] == f"{n}/{n}"
    assert scores["sidecar"] == f"{n}/{n}"
    assert scores["kopi"] == f"{n}/{n}"
    assert scores["bypass"] == f"0/{n}"
    assert scores["hypervisor"] == f"0/{n}"
