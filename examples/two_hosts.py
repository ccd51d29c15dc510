#!/usr/bin/env python3
"""Two complete hosts on one switch: a legacy DPDK (bypass) client on host A
talks to a Norman server on host B. Host B's administrator keeps full
visibility and control over *her* side regardless of what the remote end
runs.

Run:  python examples/two_hosts.py
"""

from repro.core import NormanOS
from repro.dataplanes import BypassDataplane
from repro.dataplanes.multihost import HOST_B_IP, TwoHostTestbed
from repro.errors import EndpointClosed
from repro.net import PROTO_UDP
from repro.sim import SimProcess
from repro.tools import Ss, Tcpdump


def main() -> None:
    tb = TwoHostTestbed(BypassDataplane, NormanOS)

    client = tb.host_a.spawn("dpdk-client", "bob", core_id=1)
    server = tb.host_b.spawn("kv-server", "charlie", core_id=1)
    ep_c = tb.host_a.dataplane.open_endpoint(client, PROTO_UDP, 6000)
    ep_s = tb.host_b.dataplane.open_endpoint(server, PROTO_UDP, 7000)

    dump_b = Tcpdump(tb.host_b.dataplane)
    session = dump_b.start("udp")

    def srv():
        try:
            while True:
                size, src_ip, sport = yield ep_s.recv(blocking=True)
                yield ep_s.send(size // 2, dst=(src_ip, sport))
        except EndpointClosed:
            return  # the administrator closed the server's endpoint

    def cli():
        yield ep_c.connect(HOST_B_IP, 7000)
        for i in range(3):
            yield ep_c.send(400 + 100 * i)
            reply = yield ep_c.recv(blocking=True)
            print(f"  client got {reply[0]}B reply")
        ep_c.close()

    SimProcess(tb.sim, srv())
    SimProcess(tb.sim, cli())
    tb.run(until=10_000_000)

    print("\n=== host B's attributed capture of the cross-host flow ===")
    print(dump_b.format(session))

    print("\n=== host B's ss ===")
    print(Ss(tb.host_b.dataplane, tb.host_b.kernel)())
    ep_s.close()
    tb.run_all()

    print("\n=== switch MAC table ===")
    for mac, port in sorted(tb.switch.mac_table().items(), key=lambda kv: kv[1]):
        print(f"  port {port}: {mac}")


if __name__ == "__main__":
    main()
