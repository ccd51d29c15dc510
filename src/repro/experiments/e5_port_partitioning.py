"""E5 — §2 Partitioning ports.

Policy: only Bob's postgres may receive on 5432. Charlie's misconfigured
MySQL tries to bind/steer 5432; the peer then sends Postgres traffic. We
count violation deliveries (packets the wrong process received) under each
dataplane, and record the mechanism that stopped (or failed to stop) them.
"""

from __future__ import annotations

from typing import List

from ..dataplanes import Testbed
from ..errors import AddressInUse
from ..kernel.netfilter import ACCEPT, CHAIN_INPUT, DROP, NetfilterRule
from ..apps import DatabaseServer, MisconfiguredDatabase
from .common import Row, fmt_table, planes_under_test

N_QUERIES = 20
POSTGRES_PORT = 5432


def _owner_policy(tb: Testbed) -> None:
    bob = tb.user("bob")
    tb.dataplane.install_filter_rule(
        NetfilterRule(verdict=ACCEPT, chain=CHAIN_INPUT, dport=POSTGRES_PORT,
                      uid_owner=bob.uid, cmd_owner="postgres")
    )
    tb.dataplane.install_filter_rule(
        NetfilterRule(verdict=DROP, chain=CHAIN_INPUT, dport=POSTGRES_PORT)
    )


def run_e5() -> List[Row]:
    rows: List[Row] = []
    for plane_cls in planes_under_test():
        tb = Testbed(plane_cls)
        tb.user("bob")
        tb.user("charlie")

        policy = "none possible"
        try:
            _owner_policy(tb)
            policy = "owner rule (uid+comm)"
        except Exception as exc:  # UnsupportedOperation from off-host planes
            policy = f"refused: {type(exc).__name__}"
        tb.run_all()  # commit policy loads

        # Bob's postgres is already serving when Charlie's misconfiguration
        # arrives — the realistic failure order.
        legit = DatabaseServer(tb, comm="postgres", user="bob",
                               port=POSTGRES_PORT, core_id=1).start()
        bind_blocked = False
        thief = None
        try:
            thief = MisconfiguredDatabase(tb, core_id=2).start()
        except AddressInUse:
            bind_blocked = True

        for i in range(N_QUERIES):
            tb.sim.after(50_000 * (i + 1), tb.peer.send_udp, 700 + i, POSTGRES_PORT, 200)
        tb.run(until=50_000 * (N_QUERIES + 4))
        if thief is not None:
            thief.stop()
        if legit is not None:
            legit.stop()
        tb.run_all()

        stolen = thief.stolen if thief is not None else 0
        rows.append({
            "plane": plane_cls.name,
            "policy": policy,
            "thief_bind_blocked": bind_blocked,
            "violations_delivered": stolen,
            "legit_served": legit.queries if legit is not None else 0,
        })
    return rows


def headline(rows: List[Row]) -> dict:
    by_plane = {r["plane"]: r for r in rows}
    return {
        "bypass_violations": by_plane["bypass"]["violations_delivered"],
        "kopi_violations": by_plane["kopi"]["violations_delivered"],
        "kernel_violations": by_plane["kernel"]["violations_delivered"],
    }


def main() -> str:
    rows = run_e5()
    h = headline(rows)
    return "\n".join([
        fmt_table(rows),
        "",
        f"headline: bypass delivered {h['bypass_violations']} violating packets "
        f"to the wrong process; kernel and KOPI delivered "
        f"{h['kernel_violations']} and {h['kopi_violations']}",
    ])


if __name__ == "__main__":
    print(main())
