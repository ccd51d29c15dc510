"""E6 — §2 Process scheduling: blocking vs polling I/O.

Intermittent load at varying inter-arrival gaps. Kernel bypass forces the
worker to poll — the core burns at ~100% regardless of load; the kernel
path and KOPI let it block — utilization tracks the real work, at the price
of a microsecond-scale wake latency per message. KOPI is additionally run
in polling mode to show §4.3's "supports both".
"""

from __future__ import annotations

from typing import List

from .. import units
from ..core import NormanOS
from ..dataplanes import BypassDataplane, KernelPathDataplane, Testbed
from ..apps import BlockingWorker, PollingWorker
from .common import Row, fmt_table

GAPS_NS = (50_000, 500_000, 5_000_000)  # 20k, 2k, 200 msgs/sec equivalents
N_MESSAGES = 30

MODES = (
    ("bypass", BypassDataplane, PollingWorker, "poll (forced)"),
    ("kernel", KernelPathDataplane, BlockingWorker, "block"),
    ("kopi", NormanOS, BlockingWorker, "block"),
    ("kopi", NormanOS, PollingWorker, "poll (optional)"),
)


def run_e6(gaps_ns: "tuple[int, ...]" = GAPS_NS, n_messages: int = N_MESSAGES) -> List[Row]:
    rows: List[Row] = []
    for gap_ns in gaps_ns:
        for plane_name, plane_cls, worker_cls, mode in MODES:
            tb = Testbed(plane_cls)
            worker = worker_cls(tb, port=7000, comm="worker", user="bob", core_id=1)
            worker.start()
            for i in range(n_messages):
                tb.sim.after(gap_ns * (i + 1), tb.peer.send_udp, 555, 7000, 200)
            window = gap_ns * (n_messages + 2)
            tb.run(until=window)
            worker.stop()
            tb.run_all()
            starts = worker.service_starts()
            sends = [gap_ns * (i + 1) for i in range(len(starts))]
            dispatches = sorted(s - t for s, t in zip(starts, sends))
            p50 = dispatches[len(dispatches) // 2] if dispatches else 0
            rows.append({
                "plane": plane_name,
                "mode": mode,
                "msg_per_sec": round(units.SEC / gap_ns),
                "served": worker.served,
                "core_util_pct": 100 * tb.machine.cpus[1].utilization(window),
                "dispatch_us_p50": p50 / units.US,
            })
    return rows


def headline(rows: List[Row]) -> dict:
    lowest = min(r["msg_per_sec"] for r in rows)
    low = {(r["plane"], r["mode"]): r for r in rows if r["msg_per_sec"] == lowest}
    return {
        "low_load_msgs_per_sec": lowest,
        "bypass_poll_util_pct": low[("bypass", "poll (forced)")]["core_util_pct"],
        "kopi_block_util_pct": low[("kopi", "block")]["core_util_pct"],
    }


def main() -> str:
    rows = run_e6()
    h = headline(rows)
    return "\n".join([
        fmt_table(rows),
        "",
        f"headline: at {h['low_load_msgs_per_sec']} msgs/s, bypass polling burns "
        f"{h['bypass_poll_util_pct']:.0f}% of a core; KOPI blocking uses "
        f"{h['kopi_block_util_pct']:.2f}%",
    ])


if __name__ == "__main__":
    print(main())
