"""Per-layer host-time tracing, installed from outside the program.

The layers are named after repro's modules. A layer is a set of public
entry points; :func:`install` replaces each one, on its class and on every
subclass that overrides it, with a wrapper that counts the call and times
it. Install before any testbed is built: several planes hoist bound methods
at construction time, and a hoisted method taken before the wrapper exists
would bypass it.

Self time is the time inside a layer's wrapped entry points minus the time
inside other wrapped layers called from them. A call into the layer already
on top of the stack (``Simulator.after`` calling ``Simulator.at``, a plane's
``recv_burst`` calling its own ``recv``) is not counted again. The time
spent with no wrapped call on the stack is measured directly, so the
per-layer self times plus ``unattributed`` summing to the traced wall is a
check on the bookkeeping, not an identity.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Callable, Dict, List, Tuple

# Importing the core and dataplanes packages loads every plane, so every
# Endpoint subclass exists when install() walks the subclasses.
from repro.core import KopiNic
from repro.dataplanes import Endpoint
from repro.host.cache import WayPartitionedCache
from repro.host.cpu import Core
from repro.host.pcie import DmaEngine
from repro.interpose.fastpath import FlowFastPath
from repro.interpose.point import InterpositionPoint
from repro.kernel.netfilter import RuleTable
from repro.kernel.netstack import KernelNetStack
from repro.kernel.syscall import SyscallLayer
from repro.net import packet as packet_mod
from repro.net.link import Link
from repro.net.switch import L2Switch
from repro.nic.rings import DescriptorRing
from repro.overlay.machine import OverlayMachine
from repro.sim import FastForwardController, Simulator
from repro.sim.fastforward import RackFastForward

#: Layer name -> ((class, method names), ...). ``net.packet`` and
#: ``net.switch`` also have entry points that are not plain methods; see
#: :func:`install`.
METHOD_LAYERS: Tuple[Tuple[str, Tuple[Tuple[type, Tuple[str, ...]], ...]], ...] = (
    ("sim.schedule", ((Simulator, ("at", "after", "at_burst", "after_burst")),)),
    ("sim.dispatch", ((Simulator, ("run", "step")),)),
    ("sim.fastforward", (
        (FastForwardController,
         ("absorb", "absorb_send", "flush_all", "demote", "demote_all")),
        (RackFastForward, ("flush_all",)),
    )),
    ("host.cache", ((WayPartitionedCache, ("dma_write", "cpu_read")),)),
    # The NIC models charge PCIe through the ledger and MMIO surfaces;
    # dma_write/dma_read are kept for any caller that moves data through
    # the engine itself.
    ("host.pcie", ((DmaEngine, ("dma_write", "dma_read", "account_placement",
                                "mmio_write_cost", "mmio_read_cost")),)),
    ("host.cpu", ((Core, ("execute",)),)),
    ("nic.rings", ((DescriptorRing,
                    ("post", "post_burst", "consume", "consume_burst")),)),
    ("core.kopi_nic", ((KopiNic, ("rx_from_wire", "doorbell")),)),
    ("overlay.exec", ((OverlayMachine, ("execute",)),)),
    ("kernel.netstack", ((KernelNetStack,
                          ("sendto", "sendmmsg", "recv", "recvmmsg",
                           "deliver", "deliver_burst")),)),
    ("kernel.syscall", ((SyscallLayer, ("invoke",)),)),
    ("interpose.rules", ((RuleTable, ("evaluate",)),)),
    ("interpose.fastpath", ((FlowFastPath, ("lookup", "install", "bulk_hit")),)),
    ("interpose.commit", ((InterpositionPoint,
                           ("record_update", "begin_commit")),)),
    ("net.packet", ()),
    ("net.link", ((Link, ("send", "send_fluid")),)),
    ("net.switch", ((L2Switch, ("forward_fluid",)),)),
    ("dataplanes.endpoint", ((Endpoint,
                              ("send", "recv", "send_burst", "recv_burst")),)),
)

LAYERS: Tuple[str, ...] = tuple(name for name, _ in METHOD_LAYERS)
UNATTRIBUTED = "unattributed"


class LayerTracer:
    """Call counts and self time per layer, plus the time spent outside
    every layer. One tracer per process; :func:`install` binds it."""

    def __init__(self, layers: Tuple[str, ...] = LAYERS):
        self.layers = layers
        self.calls: List[int] = [0] * len(layers)
        self.self_ns: List[int] = [0] * len(layers)
        self.inside_ns = 0
        # Each frame is [layer index, ns spent in wrapped children].
        self._stack: List[List[int]] = []
        self._t0 = 0
        self._t1 = 0

    def wrap(self, layer: str, fn: Callable) -> Callable:
        idx = self.layers.index(layer)
        stack = self._stack
        calls = self.calls
        self_ns = self.self_ns
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == idx:
                return fn(*args, **kwargs)
            frame = [idx, 0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                calls[idx] += 1
                self_ns[idx] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    tracer.inside_ns += dt

        return functools.wraps(fn)(traced)

    # -- the traced window ---------------------------------------------------

    def start(self) -> None:
        """Zero every count and open the traced window."""
        self.calls[:] = [0] * len(self.layers)
        self.self_ns[:] = [0] * len(self.layers)
        self.inside_ns = 0
        self._t0 = time.perf_counter_ns()

    def stop(self) -> None:
        self._t1 = time.perf_counter_ns()

    def report(self) -> Dict[str, float]:
        """``<layer>.calls``, ``<layer>.self_ms`` and ``<layer>.ns_per_call``
        per layer, ``unattributed.self_ms``, the traced wall, and the
        directly measured time inside any layer (for the sum check)."""
        out: Dict[str, float] = {}
        for i, name in enumerate(self.layers):
            calls = self.calls[i]
            out[f"{name}.calls"] = calls
            out[f"{name}.self_ms"] = self.self_ns[i] / 1e6
            out[f"{name}.ns_per_call"] = self.self_ns[i] / calls if calls else 0.0
        wall_ns = self._t1 - self._t0
        out[f"{UNATTRIBUTED}.self_ms"] = (wall_ns - self.inside_ns) / 1e6
        out["traced_wall_ms"] = wall_ns / 1e6
        out["inside_ms"] = self.inside_ns / 1e6
        return out


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def _wrap_method(tracer: LayerTracer, layer: str, cls: type, name: str) -> None:
    """Wrap ``cls.name`` and every subclass override of it."""
    for c in _subclasses(cls):
        fn = c.__dict__.get(name)
        if fn is None or hasattr(fn, "__wrapped__"):
            continue
        setattr(c, name, tracer.wrap(layer, fn))


def install(tracer: LayerTracer) -> None:
    """Wrap every layer's public entry points. Call once per process,
    before any simulator, testbed or rack is constructed."""
    for layer, entries in METHOD_LAYERS:
        for cls, names in entries:
            for name in names:
                _wrap_method(tracer, layer, cls, name)

    # net.switch: the per-port frame handler that L2Switch.ingress returns.
    ingress = L2Switch.ingress

    def traced_ingress(self, port):
        return tracer.wrap("net.switch", ingress(self, port))

    L2Switch.ingress = traced_ingress

    # net.packet: the Packet.five_tuple property, and make_udp/make_tcp
    # wherever a module imported them by name.
    prop = packet_mod.Packet.five_tuple
    packet_mod.Packet.five_tuple = property(tracer.wrap("net.packet", prop.fget))
    for fname in ("make_udp", "make_tcp"):
        original = getattr(packet_mod, fname)
        traced = tracer.wrap("net.packet", original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            if getattr(mod, fname, None) is original:
                setattr(mod, fname, traced)
