"""FPGA fabric: bitstreams and overlay slots.

Two reconfiguration granularities, per §4.4:

* :meth:`load_bitstream` rewrites the hardware — "seconds or longer", the
  dataplane is **offline** for the duration ("equivalent to upgrading the
  kernel itself");
* :meth:`load_overlay` loads a verified program into an existing overlay
  slot in microseconds, with the dataplane live throughout.

E10 measures exactly this asymmetry against a year of policy churn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ...config import CostModel
from ...errors import NicError
from ...overlay.isa import Instr, Program
from ...overlay.machine import CompiledProgram, OverlayMachine
from ...overlay.verifier import verify
from ...sim import MetricSet, Signal, Simulator


@dataclass(frozen=True)
class Bitstream:
    """A full-fabric image: which overlay slots (and their capacities) it
    provides, and how much logic it consumes."""

    name: str
    overlay_slots: "tuple[tuple[str, int], ...]"  # (slot name, max instrs)
    logic_units: int = 100_000


class OverlaySlot:
    """One loadable program slot inside the current bitstream.

    ``compiled`` is the fabric's mapping from instruction tuples to
    compiled programs, shared by the machines it loads."""

    def __init__(
        self,
        name: str,
        max_instrs: int,
        costs: CostModel,
        compiled: Optional[Dict[Tuple[Instr, ...], CompiledProgram]] = None,
    ):
        self.name = name
        self.max_instrs = max_instrs
        self.costs = costs
        self.compiled = compiled
        self.machine: Optional[OverlayMachine] = None
        self.loads = 0

    def load(self, program: Program) -> OverlayMachine:
        """Install ``program``, which :meth:`FpgaFabric.load_overlay`
        verified against this slot when the load was submitted."""
        self.machine = OverlayMachine(program, self.costs, self.compiled)
        self.loads += 1
        return self.machine


class FpgaFabric:
    """The reconfigurable fabric of one SmartNIC."""

    def __init__(
        self,
        sim: Simulator,
        costs: CostModel,
        logic_capacity: int = 1_000_000,
        name: str = "fpga",
    ):
        self.sim = sim
        self.costs = costs
        self.logic_capacity = logic_capacity
        self.name = name
        self.metrics = MetricSet(name)
        self.current: Optional[Bitstream] = None
        self.slots: Dict[str, OverlaySlot] = {}
        self.offline = False
        self._offline_watchers: List[Callable[[bool], None]] = []
        # Programs compile at their first packet, once per NIC: overlay
        # machines with equal instructions share one compiled program,
        # across bitstream loads too.
        self.compiled: Dict[Tuple[Instr, ...], CompiledProgram] = {}

    def on_offline_change(self, fn: Callable[[bool], None]) -> None:
        """NIC models subscribe to start/stop dropping traffic."""
        self._offline_watchers.append(fn)

    def _set_offline(self, offline: bool) -> None:
        self.offline = offline
        for fn in self._offline_watchers:
            fn(offline)

    def factory_flash(self, bitstream: Bitstream) -> None:
        """Install the power-on image synchronously (the NIC ships flashed).

        Only valid before any traffic: later changes must go through
        :meth:`load_bitstream` and pay the full reconfiguration price.
        """
        if self.current is not None:
            raise NicError("factory_flash after boot; use load_bitstream")
        if bitstream.logic_units > self.logic_capacity:
            raise NicError(
                f"bitstream {bitstream.name!r} needs {bitstream.logic_units} "
                f"logic units; fabric has {self.logic_capacity}"
            )
        self.current = bitstream
        self.slots = {
            name: OverlaySlot(name, cap, self.costs, self.compiled)
            for name, cap in bitstream.overlay_slots
        }

    # --- slow path: full reprogram ----------------------------------------

    def load_bitstream(self, bitstream: Bitstream) -> Signal:
        """Replace the whole fabric. Takes ``bitstream_load_ns`` during
        which the dataplane is offline; all loaded overlay programs are
        lost (hardware was rewritten)."""
        if bitstream.logic_units > self.logic_capacity:
            raise NicError(
                f"bitstream {bitstream.name!r} needs {bitstream.logic_units} "
                f"logic units; fabric has {self.logic_capacity}"
            )
        if self.offline:
            raise NicError("reconfiguration already in progress")
        self._set_offline(True)
        self.metrics.counter("bitstream_loads").inc()
        done = Signal(f"{self.name}.bitstream.{bitstream.name}")

        def _finish() -> None:
            self.current = bitstream
            self.slots = {
                name: OverlaySlot(name, cap, self.costs, self.compiled)
                for name, cap in bitstream.overlay_slots
            }
            self._set_offline(False)
            done.succeed(bitstream.name)

        self.sim.after(self.costs.bitstream_load_ns, _finish)
        return done

    # --- fast path: overlay program load ----------------------------------------

    def load_overlay(self, slot_name: str, program: Program) -> Signal:
        """Load a verified program into a slot; microseconds, dataplane
        stays live. Fails fast on verification errors (nothing is loaded)."""
        if self.current is None:
            raise NicError("no bitstream loaded")
        if slot_name not in self.slots:
            raise NicError(
                f"bitstream {self.current.name!r} has no slot {slot_name!r} "
                f"(have {sorted(self.slots)})"
            )
        slot = self.slots[slot_name]
        # Verify synchronously so a bad program costs nothing.
        verify(program, max_instrs=slot.max_instrs)
        done = Signal(f"{self.name}.overlay.{slot_name}")
        self.metrics.counter("overlay_loads").inc()

        def _finish() -> None:
            done.succeed(slot.load(program))

        self.sim.after(self.costs.overlay_load_ns, _finish)
        return done

    def machine(self, slot_name: str) -> Optional[OverlayMachine]:
        slot = self.slots.get(slot_name)
        return slot.machine if slot else None
