"""Dataplane implementations.

One subclass per architecture the paper compares:

* :class:`KernelPathDataplane` — classic kernel stack (virtual movement,
  full interposition);
* :class:`BypassDataplane` — DPDK-style kernel bypass (fast, blind);
* :class:`SidecarDataplane` — IX/Snap-style dedicated interposition core
  (physical movement, full interposition): the kernel path with its stack
  on its own core;
* :class:`HypervisorDataplane` — AccelNet-style NIC vswitch (global header
  view, no process view): the bypass plane plus the vswitch;
* the KOPI dataplane, the paper's contribution, lives in :mod:`repro.core`.

All expose the same :class:`Dataplane` interface, so the capability matrix
(E3) and the overhead comparisons (E1/E2) run identical workloads over each.
"""

from .base import CaptureSession, Dataplane, Endpoint, QosConfig
from .bypass import BypassDataplane
from .hypervisor import HypervisorDataplane
from .kernel_path import KernelPathDataplane
from .multihost import TwoHostTestbed
from .sidecar import SidecarDataplane
from .testbed import Testbed, TrafficPeer

__all__ = [
    "BypassDataplane",
    "CaptureSession",
    "Dataplane",
    "Endpoint",
    "HypervisorDataplane",
    "KernelPathDataplane",
    "QosConfig",
    "SidecarDataplane",
    "Testbed",
    "TrafficPeer",
    "TwoHostTestbed",
]
