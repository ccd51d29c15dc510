"""E7 — §2 QoS: shape the game without hurting productive work.

Bob's game (which hops server ports every session) and a productive bulk
app compete for a constrained egress link. Policy: ``tc ... wfq /games:1
/work:3``. Under a dataplane with a process view the peer observes a ~25/75
split; under bypass no policy exists and the split follows the offered
load (~50/50); the hypervisor refuses (it could only shape by port, and the
game's ports change every session).
"""

from __future__ import annotations

from typing import List

from .. import units
from ..core import NormanOS
from ..dataplanes import (
    BypassDataplane,
    HypervisorDataplane,
    KernelPathDataplane,
    SidecarDataplane,
    Testbed,
)
from ..errors import UnsupportedOperation
from ..apps import BulkSender, GameClient
from ..tools import Tc
from .common import Row, fmt_table

LINK_RATE = 2 * units.GBPS
WINDOW_NS = 30 * units.MS
PAYLOAD = 1_200
WEIGHTS = "/games:1 /work:3"
EXPECTED_WORK_SHARE = 0.75

PLANES = (KernelPathDataplane, BypassDataplane, SidecarDataplane,
          HypervisorDataplane, NormanOS)


def run_e7(window_ns: int = WINDOW_NS) -> List[Row]:
    rows: List[Row] = []
    for plane_cls in PLANES:
        tb = Testbed(plane_cls, link_rate_bps=LINK_RATE)
        tb.kernel.cgroups.create("/games")
        tb.kernel.cgroups.create("/work")

        game = GameClient(tb, user="bob", core_id=1, payload_len=PAYLOAD,
                          packets_per_session=100_000, sessions=1, seed=3)
        work = BulkSender(tb, comm="builder", user="charlie", core_id=2,
                          payload_len=PAYLOAD, count=None)
        tb.kernel.cgroups.assign(game.proc, "/games")
        tb.kernel.cgroups.assign(work.proc, "/work")

        policy = "wfq /games:1 /work:3"
        try:
            Tc(tb.dataplane, tb.kernel)(f"qdisc replace dev nic0 root wfq {WEIGHTS}")
        except UnsupportedOperation as exc:
            policy = f"refused: {_first_clause(str(exc))}"
        tb.run_all()  # commit classifier/scheduler loads

        game.start()
        work.start()
        tb.run(until=window_ns)
        game.stop()
        work.stop()
        tb.run(until=window_ns)  # do not count post-window drain

        game_bytes = sum(tb.peer.bytes_to_dport(p) for p in set(game.ports_used))
        work_bytes = tb.peer.bytes_to_dport(9_000)
        total = max(game_bytes + work_bytes, 1)
        work_share = work_bytes / total
        rows.append({
            "plane": plane_cls.name,
            "policy": policy,
            "game_share_pct": 100 * game_bytes / total,
            "work_share_pct": 100 * work_share,
            "link_util_pct": 100 * min(1.0, units.bits(total) / (LINK_RATE * units.ns_to_sec(window_ns))),
            "enforced": abs(work_share - EXPECTED_WORK_SHARE) < 0.08,
        })
    return rows


def _first_clause(text: str) -> str:
    return text.split(":")[0].strip()


def headline(rows: List[Row]) -> dict:
    by_plane = {r["plane"]: r for r in rows}
    return {
        "kopi_work_share_pct": by_plane["kopi"]["work_share_pct"],
        "bypass_work_share_pct": by_plane["bypass"]["work_share_pct"],
        "enforcing_planes": [r["plane"] for r in rows if r["enforced"]],
    }


def main() -> str:
    rows = run_e7()
    h = headline(rows)
    return "\n".join([
        fmt_table(rows),
        "",
        f"headline: weighted shares hold on {h['enforcing_planes']}; bypass "
        f"gives work {h['bypass_work_share_pct']:.0f}% (unshaped) vs KOPI "
        f"{h['kopi_work_share_pct']:.0f}%",
    ])


if __name__ == "__main__":
    print(main())
