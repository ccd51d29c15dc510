"""The capability matrix — §2's four scenarios, measured, not asserted.

Each probe builds a fresh testbed around a dataplane class and *runs* the
scenario; a cell is "yes" only when the mechanism demonstrably worked (the
violating packet was dropped, the blocked thread actually slept, the
capture was attributable...). This keeps the E3 table honest: it is derived
from the same machinery the other experiments measure.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Type

from ..errors import ReproError, UnsupportedOperation
from ..kernel.netfilter import ACCEPT, CHAIN_OUTPUT, DROP, NetfilterRule
from ..net.headers import PROTO_UDP
from ..sim import SimProcess
from ..dataplanes.base import Dataplane, QosConfig
from ..dataplanes.testbed import PEER_IP, Testbed

SCENARIO_DEBUGGING = "debugging"
SCENARIO_PORTS = "port_partitioning"
SCENARIO_SCHED = "process_scheduling"
SCENARIO_QOS = "qos"

SCENARIOS = (SCENARIO_DEBUGGING, SCENARIO_PORTS, SCENARIO_SCHED, SCENARIO_QOS)


def _probe_debugging(tb: Testbed) -> bool:
    """Can the admin see all apps' traffic AND attribute it to processes?"""
    session = tb.dataplane.start_capture(name="probe")  # may raise
    a = tb.spawn("app-a", "bob", core_id=1)
    b = tb.spawn("app-b", "charlie", core_id=2)
    ep_a = tb.dataplane.open_endpoint(a, PROTO_UDP, 6000)
    ep_b = tb.dataplane.open_endpoint(b, PROTO_UDP, 6001)
    ep_a.send(64, dst=(PEER_IP, 9000))
    ep_b.send(64, dst=(PEER_IP, 9001))
    tb.run_all()
    if len(session.packets) < 2:
        return False  # no global view
    owners = {tb.dataplane.attribution_of(p) for p in session.packets}
    return None not in owners  # process view present


def _probe_ports(tb: Testbed) -> bool:
    """Is 'only Bob's postgres may send to 5432' enforceable?"""
    bob = tb.user("bob")
    tb.dataplane.install_filter_rule(
        NetfilterRule(verdict=ACCEPT, chain=CHAIN_OUTPUT, dport=5432,
                      uid_owner=bob.uid, cmd_owner="postgres")
    )
    tb.dataplane.install_filter_rule(
        NetfilterRule(verdict=DROP, chain=CHAIN_OUTPUT, dport=5432)
    )
    rogue = tb.spawn("rogue", "charlie", core_id=1)
    ep = tb.dataplane.open_endpoint(rogue, PROTO_UDP, 6000)
    # Policy installation is asynchronous on programmable hardware (an
    # overlay load takes ~50 us); wait on the engine's commit notification —
    # step the clock only until every pending policy commit is live.
    committed = tb.machine.interpose.all_committed()
    while not committed.triggered and tb.sim.step():
        pass
    ep.send(64, dst=(PEER_IP, 5432))
    tb.run_all()
    violations = sum(
        1 for p in tb.peer.received
        if p.l4 is not None and p.l4.dport == 5432
    )
    return violations == 0


def _probe_sched(tb: Testbed) -> bool:
    """Can a reader block (core idle) and still be woken on arrival?"""
    if not tb.dataplane.supports_blocking_io:
        return False
    proc = tb.spawn("sleeper", "bob", core_id=1)
    ep = tb.dataplane.open_endpoint(proc, PROTO_UDP, 7000)
    got: List[object] = []

    def server():
        msg = yield ep.recv(blocking=True)
        got.append(msg)

    SimProcess(tb.sim, server())
    tb.sim.after(1_000_000, tb.peer.send_udp, 555, 7000, 64)
    tb.run_all()
    woken = len(got) == 1
    idle = tb.machine.cpus[1].busy_ns < 200_000  # ~1 ms wait, core mostly idle
    return woken and idle


def _probe_qos(tb: Testbed) -> bool:
    """Is cgroup-weighted shaping accepted (and wired to the scheduler)?"""
    tb.kernel.cgroups.create("/games")
    tb.kernel.cgroups.create("/work")
    tb.dataplane.configure_qos(QosConfig(weights_by_cgroup={"/games": 1, "/work": 9}))
    return True


_PROBES: Dict[str, Callable[[Testbed], bool]] = {
    SCENARIO_DEBUGGING: _probe_debugging,
    SCENARIO_PORTS: _probe_ports,
    SCENARIO_SCHED: _probe_sched,
    SCENARIO_QOS: _probe_qos,
}


def capability_matrix(plane_classes: List[Type[Dataplane]]) -> Dict[str, Dict[str, str]]:
    """Run every scenario against every dataplane class.

    Cell values: ``"yes"``, ``"no (<reason>)"``, or ``"failed"`` when the
    mechanism was accepted but did not actually enforce/observe.
    """
    matrix: Dict[str, Dict[str, str]] = {}
    for cls in plane_classes:
        row: Dict[str, str] = {}
        for scenario in SCENARIOS:
            try:
                tb = Testbed(cls)
                ok = _PROBES[scenario](tb)
                row[scenario] = "yes" if ok else "no (mechanism ineffective)"
            except UnsupportedOperation as exc:
                row[scenario] = f"no ({_first_clause(str(exc))})"
            except ReproError as exc:  # unexpected library failure: surface it
                row[scenario] = f"error ({type(exc).__name__})"
        matrix[cls.name] = row
    return matrix


def _first_clause(text: str) -> str:
    return text.split(":")[0].strip()


def render_matrix(matrix: Dict[str, Dict[str, str]]) -> str:
    """ASCII table for the E3 report."""
    planes = list(matrix)
    col0 = max(len(s) for s in SCENARIOS) + 2
    widths = {p: max(len(p), max(len(matrix[p][s]) for s in SCENARIOS)) + 2 for p in planes}
    lines = ["".ljust(col0) + "".join(p.ljust(widths[p]) for p in planes)]
    for scenario in SCENARIOS:
        row = scenario.ljust(col0)
        for p in planes:
            row += matrix[p][scenario].ljust(widths[p])
        lines.append(row)
    return "\n".join(lines)
