"""repro — a full-system reproduction of *We Need Kernel Interposition over
the Network Dataplane* (KOPI / Norman, HotOS '21).

The paper's hardware (a Linux fork + an FPGA SmartNIC) is replaced by a
deterministic discrete-event simulated host; everything else — the Norman
OS, the admin tools, and every architecture the paper argues against — is
implemented for real. Quick tour::

    from repro import NormanOS, Testbed, PROTO_UDP, PEER_IP

    tb = Testbed(NormanOS)                       # host + SmartNIC + peer
    app = tb.spawn("postgres", "bob", core_id=1) # process view
    ep = tb.dataplane.open_endpoint(app, PROTO_UDP, 5432)
    ep.send(256, dst=(PEER_IP, 9000))            # rings, not syscalls
    tb.run_all()

See ``examples/`` for the §2 scenarios and ``tests/acceptance/`` for the
checks of every experiment in DESIGN.md's index.
"""

from .config import DEFAULT_COSTS, CostModel
from .core import NormanOS
from .dataplanes import (
    BypassDataplane,
    HypervisorDataplane,
    KernelPathDataplane,
    QosConfig,
    SidecarDataplane,
    Testbed,
)
from .dataplanes.testbed import HOST_IP, HOST_MAC, PEER_IP, PEER_MAC
from .errors import ReproError
from .net.headers import PROTO_TCP, PROTO_UDP
from .sim import SimProcess, Simulator

__version__ = "0.1.0"

__all__ = [
    "BypassDataplane",
    "CostModel",
    "DEFAULT_COSTS",
    "HOST_IP",
    "HOST_MAC",
    "HypervisorDataplane",
    "KernelPathDataplane",
    "NormanOS",
    "PEER_IP",
    "PEER_MAC",
    "PROTO_TCP",
    "PROTO_UDP",
    "QosConfig",
    "ReproError",
    "SidecarDataplane",
    "SimProcess",
    "Simulator",
    "Testbed",
    "__version__",
]
