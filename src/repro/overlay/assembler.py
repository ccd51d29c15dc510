"""Two-pass text assembler for overlay programs.

Syntax, one instruction per line::

    start:                      ; labels end with ':'
        ldf r0, l4.dport        ; comments with ';' or '#'
        jne r0, 5432, miss
        cnt 0
        drop
    miss:
        accept

Operands are registers (``r0``..``r7``), decimal/hex immediates, field
names, or labels. Branch targets must be labels; the assembler resolves them
to absolute indices (the verifier then checks they are forward).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import AssemblerError
from .isa import (
    ALU_OPS,
    BRANCH_OPS,
    FIELDS,
    Instr,
    N_REGISTERS,
    OP_ACCEPT,
    OP_CNT,
    OP_DROP,
    OP_HALT,
    OP_JMP,
    OP_LDF,
    OP_LDI,
    OP_METER,
    OP_MIRROR,
    OP_MOV,
    OP_SETCLS,
    OP_SETQ,
    Program,
)


def _strip(line: str) -> str:
    for marker in (";", "#"):
        if marker in line:
            line = line[: line.index(marker)]
    return line.strip()


def _parse_reg(token: str, line_no: int) -> int:
    if not token.startswith("r") or not token[1:].isdigit():
        raise AssemblerError(f"line {line_no}: expected register, got {token!r}")
    idx = int(token[1:])
    if not 0 <= idx < N_REGISTERS:
        raise AssemblerError(f"line {line_no}: no such register r{idx}")
    return idx


def _parse_imm(token: str, line_no: int) -> int:
    try:
        return int(token, 0)
    except ValueError as exc:
        raise AssemblerError(f"line {line_no}: expected immediate, got {token!r}") from exc


def _parse_reg_or_imm(token: str, line_no: int) -> Tuple[str, int]:
    if token.startswith("r") and token[1:].isdigit():
        return ("reg", _parse_reg(token, line_no))
    return ("imm", _parse_imm(token, line_no))


def _split_operands(rest: str) -> List[str]:
    return [t.strip() for t in rest.split(",") if t.strip()]


def assemble(text: str, n_counters: int = 0, n_meters: int = 0, name: str = "") -> Program:
    """Assemble ``text`` into a :class:`~repro.overlay.isa.Program`.

    Raises :class:`~repro.errors.AssemblerError` with line numbers on any
    syntax problem. Does **not** verify — run the verifier before loading.
    """
    labels: Dict[str, int] = {}
    parsed: List[Tuple[int, str, List[str]]] = []  # (line_no, op, operands)

    # Pass 1: collect labels and raw instructions.
    index = 0
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        while line.endswith(":") or (":" in line and line.split(":")[0].isidentifier()):
            label, _, remainder = line.partition(":")
            label = label.strip()
            if not label.isidentifier():
                break
            if label in labels:
                raise AssemblerError(f"line {line_no}: duplicate label {label!r}")
            labels[label] = index
            line = remainder.strip()
            if not line:
                break
        if not line:
            continue
        op, _, rest = line.partition(" ")
        parsed.append((line_no, op.lower(), _split_operands(rest)))
        index += 1

    # Pass 2: encode.
    instrs: List[Instr] = []
    for line_no, op, ops in parsed:
        instrs.append(_encode(op, ops, labels, line_no))
    return Program(instrs=tuple(instrs), n_counters=n_counters, n_meters=n_meters, name=name)


def _resolve_label(token: str, labels: Dict[str, int], line_no: int) -> int:
    if token not in labels:
        raise AssemblerError(f"line {line_no}: unknown label {token!r}")
    return labels[token]


def _expect(ops: List[str], count: int, op: str, line_no: int) -> None:
    if len(ops) != count:
        raise AssemblerError(
            f"line {line_no}: {op} takes {count} operand(s), got {len(ops)}"
        )


def _encode(op: str, ops: List[str], labels: Dict[str, int], line_no: int) -> Instr:
    if op in (OP_ACCEPT, OP_DROP, OP_HALT):
        _expect(ops, 0, op, line_no)
        return Instr(op=op)
    if op == OP_LDF:
        _expect(ops, 2, op, line_no)
        field = ops[1]
        if field not in FIELDS:
            raise AssemblerError(f"line {line_no}: unknown field {field!r}")
        return Instr(op=op, rd=_parse_reg(ops[0], line_no), field=field)
    if op == OP_LDI:
        _expect(ops, 2, op, line_no)
        return Instr(op=op, rd=_parse_reg(ops[0], line_no),
                     src=("imm", _parse_imm(ops[1], line_no)))
    if op == OP_MOV:
        _expect(ops, 2, op, line_no)
        return Instr(op=op, rd=_parse_reg(ops[0], line_no),
                     src=("reg", _parse_reg(ops[1], line_no)))
    if op in ALU_OPS:
        _expect(ops, 2, op, line_no)
        return Instr(op=op, rd=_parse_reg(ops[0], line_no),
                     src=_parse_reg_or_imm(ops[1], line_no))
    if op == OP_JMP:
        _expect(ops, 1, op, line_no)
        return Instr(op=op, target=_resolve_label(ops[0], labels, line_no))
    if op in BRANCH_OPS:
        _expect(ops, 3, op, line_no)
        return Instr(
            op=op,
            ra=_parse_reg(ops[0], line_no),
            src=_parse_reg_or_imm(ops[1], line_no),
            target=_resolve_label(ops[2], labels, line_no),
        )
    if op in (OP_SETQ, OP_SETCLS):
        _expect(ops, 1, op, line_no)
        return Instr(op=op, src=_parse_reg_or_imm(ops[0], line_no))
    if op in (OP_MIRROR, OP_CNT):
        _expect(ops, 1, op, line_no)
        return Instr(op=op, index=_parse_imm(ops[0], line_no))
    if op == OP_METER:
        _expect(ops, 2, op, line_no)
        return Instr(op=op, index=_parse_imm(ops[0], line_no),
                     rd=_parse_reg(ops[1], line_no))
    raise AssemblerError(f"line {line_no}: unknown opcode {op!r}")
