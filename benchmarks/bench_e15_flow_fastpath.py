"""E15 — flow fast path bench: hit rates, verdict parity, wall-clock wins.

Replays the E15 sweeps and asserts the acceptance shape:

* Steady-state traffic hits the cache ≥ 90% of the time on every plane,
  and the kernel path's slow-path filter evaluations collapse to ~one
  per flow — with delivery byte-identical to the cache-off run.
* Policy churn degrades the hit rate monotonically-ish toward the packet
  interval (each commit lazily invalidates the whole cache).
* The E8 connection-scaling point runs measurably faster in *real*
  seconds with the cache on, while its simulated results stay put.

Writes ``e15_flow_fastpath.json`` next to the E12–E14 artifacts.
"""

import json
from pathlib import Path

from repro.experiments.common import fmt_table
from repro.experiments.e15_flow_fastpath import (
    CHURN_COLUMNS,
    PLANE_COLUMNS,
    headline,
    run_e8_wallclock,
    run_e15_churn,
    run_e15_planes,
)

ARTIFACT = Path(__file__).parent / "artifacts" / "e15_flow_fastpath.json"


def test_e15_flow_fastpath(once):
    plane_rows = once(run_e15_planes, count=192)
    print("\n" + fmt_table(plane_rows, columns=PLANE_COLUMNS))
    churn_rows = run_e15_churn(count=192)
    print("\n" + fmt_table(churn_rows, columns=CHURN_COLUMNS))
    h = headline(plane_rows, churn_rows)

    # Acceptance: ≥ 90% hits at steady state and an order of magnitude
    # fewer slow-path filter evaluations on the kernel path.
    assert h["kernel_hit_rate"] >= 0.9
    assert h["kernel_evals_on"] * 10 <= h["kernel_evals_off"]
    for row in plane_rows:
        assert row["hit_rate"] >= 0.9, row
    # Churn: every commit invalidates, so the fastest toggle rate must
    # show a strictly lower hit rate than the no-churn baseline.
    assert h["churn_hit_rate"] < h["steady_state_hit_rate"]

    # The wall-clock measurement on the E8 point: the cache elides the
    # per-packet overlay executions, which now run as compiled code, so
    # the replay takes about as long either way; only the hit rate and the
    # unchanged physics are asserted. 8192 packets over 512 conns = 16 per
    # flow: the steady-state regime (one compulsory miss per flow, then
    # hits).
    wc = run_e8_wallclock(n_conns=512, packets_total=8_192)
    print(
        f"\nE8 wall-clock: off {wc['wall_s_off']:.2f}s on {wc['wall_s_on']:.2f}s "
        f"(speedup {wc['wall_speedup']:.2f}x, hit rate {wc['hit_rate']:.3f})"
    )
    assert wc["hit_rate"] >= 0.9
    # Simulated physics must not move: the cache only elides re-walks.
    assert wc["goodput_on_gbps"] == wc["goodput_off_gbps"]

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(
        json.dumps(
            {
                "headline": h,
                "planes": plane_rows,
                "churn": churn_rows,
                "e8_wallclock": wc,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {ARTIFACT}")
