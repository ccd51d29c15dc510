"""E3 — §2: the capability matrix, measured.

Each cell is the outcome of actually running the scenario against the
dataplane (see :mod:`repro.core.capabilities`). The paper's prediction:
kernel and sidecar support everything (at E1/E2's cost), bypass supports
nothing, the hypervisor has the global view but not the process view, and
KOPI supports everything at bypass cost.
"""

from __future__ import annotations

from typing import Dict

from ..core.capabilities import SCENARIOS, capability_matrix, render_matrix
from .common import planes_under_test


def run_e3() -> Dict[str, Dict[str, str]]:
    return capability_matrix(planes_under_test())


def headline(matrix: Dict[str, Dict[str, str]]) -> dict:
    def score(plane: str) -> int:
        return sum(1 for v in matrix[plane].values() if v == "yes")

    return {plane: f"{score(plane)}/{len(SCENARIOS)}" for plane in matrix}


def main() -> str:
    matrix = run_e3()
    scores = headline(matrix)
    return "\n".join(
        [
            render_matrix(matrix),
            "",
            "scenarios supported: "
            + ", ".join(f"{p}={s}" for p, s in scores.items()),
        ]
    )


if __name__ == "__main__":
    print(main())
