"""Overlay execution engine.

Runs one verified program per packet. The program runs as Python code
generated once from its instructions (:func:`compile_program`): its basic
blocks in program order, field loads as attribute reads and compares
written inline. Because the verifier guarantees forward-only control flow,
the generated code is a single forward pass; a program with a back edge,
which only an unverified program can hold, is refused when it would be
compiled, so it can never wedge the simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .. import units
from ..config import CostModel
from ..errors import OverlayError
from ..net.headers import TcpHeader
from ..net.packet import Packet
from .isa import (
    ALU_OPS,
    BRANCH_OPS,
    Instr,
    N_REGISTERS,
    OP_CNT,
    OP_DROP,
    OP_JMP,
    OP_LDF,
    OP_METER,
    OP_MIRROR,
    OP_SETCLS,
    OP_SETQ,
    Program,
    TERMINAL_OPS,
    VERDICT_ACCEPT,
    VERDICT_DROP,
    WORD_MASK,
)


@dataclass
class ExecResult:
    """Outcome of running a program over one packet."""

    verdict: str
    queue: Optional[int] = None
    sched_class: Optional[int] = None
    mirrors: List[int] = field(default_factory=list)
    instrs_executed: int = 0
    cost_ns: int = 0


@dataclass
class _Meter:
    rate_bps: int
    burst_bytes: int
    tokens: float = 0.0
    last_fill_ns: int = 0

    def conformant(self, now_ns: int, nbytes: int) -> bool:
        elapsed = now_ns - self.last_fill_ns
        if elapsed > 0:
            self.tokens = min(
                float(self.burst_bytes),
                self.tokens + elapsed * self.rate_bps / (8 * units.SEC),
            )
            self.last_fill_ns = now_ns
        if self.tokens >= nbytes:
            self.tokens -= nbytes
            return True
        return False


#: A compiled program: ``run(machine, pkt, now_ns)``.
CompiledProgram = Callable[["OverlayMachine", Packet, int], ExecResult]


class OverlayMachine:
    """One loaded overlay slot: program + counters + meters.

    The program is compiled at the first :meth:`execute`, not at load:
    most loaded programs are replaced before a packet reaches them.
    ``compiled`` maps instruction tuples to compiled programs; a fabric
    passes one mapping to all its machines, so equal programs compile
    once per NIC. A machine given none compiles for itself.
    """

    #: The compiled program, set at the first execute.
    _run: Optional[CompiledProgram] = None

    def __init__(
        self,
        program: Program,
        costs: CostModel,
        compiled: Optional[Dict[Tuple[Instr, ...], CompiledProgram]] = None,
    ):
        self.program = program
        self.costs = costs
        self.counters: List[int] = [0] * program.n_counters
        self._meters: Dict[int, _Meter] = {}
        self.packets_seen = 0
        self._compiled = compiled

    def configure_meter(self, index: int, rate_bps: int, burst_bytes: int) -> None:
        """Set a meter's token bucket (done by the control plane via MMIO)."""
        if not 0 <= index < self.program.n_meters:
            raise OverlayError(
                f"meter {index} not declared (program has {self.program.n_meters})"
            )
        self._meters[index] = _Meter(
            rate_bps=rate_bps, burst_bytes=burst_bytes,
            tokens=float(burst_bytes),
        )

    def execute(self, pkt: Packet, now_ns: int) -> ExecResult:
        """Run the program over ``pkt``."""
        run = self._run
        if run is None:
            run = self._run = self._compile()
        return run(self, pkt, now_ns)

    def _compile(self) -> CompiledProgram:
        cache = self._compiled
        if cache is None:
            return compile_program(self.program)
        instrs = self.program.instrs
        run = cache.get(instrs)
        if run is None:
            run = cache[instrs] = compile_program(self.program)
        return run


#: ``ldf`` field -> the expression that reads it from ``pkt``; a field the
#: packet lacks reads as 0 (``meta.conn_id`` as all ones).
_FIELD_EXPR = {
    "eth.type": "pkt.eth.ethertype",
    "arp.op": "(pkt.arp.op if pkt.arp is not None else 0)",
    "ip.src": "(pkt.ipv4.src.value if pkt.ipv4 is not None else 0)",
    "ip.dst": "(pkt.ipv4.dst.value if pkt.ipv4 is not None else 0)",
    "ip.proto": "(pkt.ipv4.proto if pkt.ipv4 is not None else 0)",
    "ip.dscp": "(pkt.ipv4.dscp if pkt.ipv4 is not None else 0)",
    "ip.ttl": "(pkt.ipv4.ttl if pkt.ipv4 is not None else 0)",
    "l4.sport": "(pkt.l4.sport if pkt.l4 is not None else 0)",
    "l4.dport": "(pkt.l4.dport if pkt.l4 is not None else 0)",
    "tcp.flags": "(pkt.l4.flags if isinstance(pkt.l4, TcpHeader) else 0)",
    "meta.len": "pkt.wire_len",
    "meta.conn_id": "(pkt.meta.conn_id if pkt.meta.conn_id is not None else WORD_MASK)",
    "meta.queue": "(pkt.meta.queue_id if pkt.meta.queue_id is not None else 0)",
}

#: ALU op -> statement template over ``d`` (the destination register) and
#: ``x`` (the operand).
_ALU_STMT = {
    "add": "{d} = ({d} + {x}) & WORD_MASK",
    "sub": "{d} = ({d} - {x}) & WORD_MASK",
    "and": "{d} = {d} & {x}",
    "or": "{d} = {d} | {x}",
    "xor": "{d} = {d} ^ {x}",
    "shl": "{d} = ({d} << ({x} & 31)) & WORD_MASK",
    "shr": "{d} = {d} >> ({x} & 31)",
}

_BRANCH_CMP = {"jeq": "==", "jne": "!=", "jlt": "<", "jgt": ">", "jle": "<=", "jge": ">="}

#: Ops that end a block by choosing where control goes next.
_TRANSFERS = frozenset((OP_JMP,) + BRANCH_OPS + TERMINAL_OPS)

_GLOBALS = {
    "ExecResult": ExecResult,
    "OverlayError": OverlayError,
    "TcpHeader": TcpHeader,
    "WORD_MASK": WORD_MASK,
    "VERDICT_ACCEPT": VERDICT_ACCEPT,
    "VERDICT_DROP": VERDICT_DROP,
}


def compile_program(program: Program) -> CompiledProgram:
    """Generate the function that runs ``program`` over one packet.

    Its result, the machine's counters, meter state and ``packets_seen``
    are what executing the instructions one at a time gives: every block
    adds its length to ``instrs_executed``, and the cost is
    ``instrs_executed * overlay_instr_ns``. A jump past the last
    instruction, or falling off the end, accepts. A backward or self jump
    raises :class:`~repro.errors.OverlayError` here: the program could run
    past its fuel of ``len(program) + 1`` instructions.
    """
    instrs = program.instrs
    n = len(instrs)
    for pc, instr in enumerate(instrs):
        if (instr.op == OP_JMP or instr.op in BRANCH_OPS) and instr.target <= pc:
            raise OverlayError(
                f"program {program.name!r} jumps back from {pc} to {instr.target}, "
                f"so it could exceed its fuel of {n + 1} instructions; "
                "was it verified?"
            )
    # Leaders: the entry, every branch target, every instruction after a
    # control transfer. Each block runs from one leader to the next.
    leaders = {0}
    for pc, instr in enumerate(instrs):
        if instr.op in _TRANSFERS:
            leaders.add(pc + 1)
            if instr.target is not None:
                leaders.add(instr.target)
    starts = sorted(pc for pc in leaders if pc < n)
    ops = {instr.op for instr in instrs}

    out = ["def run(machine, pkt, now_ns):", "    machine.packets_seen += 1"]
    out.append("    " + " = ".join(f"r{r}" for r in range(N_REGISTERS)) + " = 0")
    out.append("    n = 0")
    out.append("    queue = sched_class = None")
    mirrors = "mirrors" if OP_MIRROR in ops else "[]"
    if OP_MIRROR in ops:
        out.append("    mirrors = []")
    if OP_CNT in ops:
        out.append("    counters = machine.counters")
    if OP_METER in ops:
        out.append("    meters = machine._meters")
    result = f"ExecResult({{}}, queue, sched_class, {mirrors}, n, n * machine.costs.overlay_instr_ns)"
    for i, start in enumerate(starts):
        end = starts[i + 1] if i + 1 < len(starts) else n
        if start == 0:
            ind = "    "  # the entry block always runs
        else:
            ind = "        "
            out.append(f"    if b == {start}:")
        for pc in range(start, end):
            instr = instrs[pc]
            op = instr.op
            if pc == end - 1:
                # Count the block before it transfers control.
                out.append(f"{ind}n += {end - start}")
            if op == OP_LDF:
                if instr.field in _FIELD_EXPR:
                    out.append(f"{ind}r{instr.rd} = {_FIELD_EXPR[instr.field]}")
                else:
                    msg = f"unknown field {instr.field!r}"
                    out.append(f"{ind}raise OverlayError({msg!r})")
            elif op in ("ldi", "mov"):
                out.append(f"{ind}r{instr.rd} = {_operand(instr)}")
            elif op in ALU_OPS:
                out.append(ind + _ALU_STMT[op].format(d=f"r{instr.rd}", x=_operand(instr)))
            elif op == OP_SETQ:
                out.append(f"{ind}queue = {_operand(instr)}")
            elif op == OP_SETCLS:
                out.append(f"{ind}sched_class = {_operand(instr)}")
            elif op == OP_MIRROR:
                out.append(f"{ind}mirrors.append({instr.index!r})")
            elif op == OP_CNT:
                out.append(f"{ind}counters[{instr.index!r}] += 1")
            elif op == OP_METER:
                out.append(f"{ind}meter = meters.get({instr.index!r})")
                out.append(f"{ind}r{instr.rd} = 1 if meter is None "
                           "or meter.conformant(now_ns, pkt.wire_len) else 0")
            elif op == OP_JMP:
                out.append(f"{ind}b = {instr.target}")
            elif op in BRANCH_OPS:
                cond = f"r{instr.ra} {_BRANCH_CMP[op]} {_operand(instr)}"
                out.append(f"{ind}b = {instr.target} if {cond} else {pc + 1}")
            elif op == OP_DROP:
                out.append(f"{ind}return " + result.format("VERDICT_DROP"))
            elif op in TERMINAL_OPS:
                out.append(f"{ind}return " + result.format("VERDICT_ACCEPT"))
            else:  # pragma: no cover - ALL_OPS is closed
                raise OverlayError(f"unimplemented opcode {op!r}")
        if instrs[end - 1].op not in _TRANSFERS:
            out.append(f"{ind}b = {end}")  # fall through to the next block
    out.append("    return " + result.format("VERDICT_ACCEPT"))
    namespace = dict(_GLOBALS)
    exec(compile("\n".join(out), f"<overlay {program.name or 'program'}>", "exec"), namespace)
    return namespace["run"]


def _operand(instr: Instr) -> str:
    kind, value = instr.src  # type: ignore[misc]
    return f"r{value}" if kind == "reg" else repr(value)

