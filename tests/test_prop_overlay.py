"""Property-based tests: overlay programs always terminate, compilers agree
with the software rule engine, and compiled programs agree with the
per-instruction interpreter kept here as the reference model."""

from typing import Dict, List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import units
from repro.config import DEFAULT_COSTS
from repro.errors import OverlayError, VerifierError
from repro.kernel import ACCEPT, CHAIN_OUTPUT, DROP, NetfilterRule
from repro.net import IPv4Address, MacAddress, make_arp_request, make_tcp, make_udp
from repro.net.headers import (
    ETHERTYPE_IPV4,
    PROTO_TCP,
    PROTO_UDP,
    EthernetHeader,
    Ipv4Header,
    TcpHeader,
    UdpHeader,
)
from repro.net.packet import Packet
from repro.nic.smartnic.fpga import Bitstream, FpgaFabric
from repro.overlay import (
    FIELDS,
    ExecResult,
    Instr,
    OverlayMachine,
    Program,
    VERDICT_ACCEPT,
    VERDICT_DROP,
    assemble,
    compile_filter_rules,
    verify,
)
from repro.overlay import machine as machine_mod
from repro.overlay.isa import (
    ALL_OPS,
    ALU_OPS,
    BRANCH_OPS,
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
    TERMINAL_OPS,
    WORD_MASK,
)
from repro.sim import Simulator

MAC_A, MAC_B = MacAddress.from_index(1), MacAddress.from_index(2)
IP_A, IP_B = IPv4Address.parse("10.0.0.1"), IPv4Address.parse("10.0.0.2")


def random_packet():
    return st.tuples(
        st.sampled_from([PROTO_TCP, PROTO_UDP]),
        st.integers(1, 0xFFFF),
        st.integers(1, 0xFFFF),
        st.integers(0, 1400),
    ).map(lambda t: (make_tcp if t[0] == PROTO_TCP else make_udp)(
        MAC_A, MAC_B, IP_A, IP_B, t[1], t[2], t[3]
    ))


def random_verified_program():
    """Generate structurally valid programs: random straight-line ALU/load
    instructions with forward branches, ending in a terminal."""

    def build(draw_ops):
        instrs = []
        n = len(draw_ops)
        for i, (kind, a, b) in enumerate(draw_ops):
            remaining = n - i  # slots after this one incl. terminal
            if kind == "ldi":
                instrs.append(Instr(op="ldi", rd=a % 8, src=("imm", b)))
            elif kind == "alu":
                instrs.append(Instr(op="add", rd=a % 8, src=("imm", b)))
            elif kind == "ldf":
                instrs.append(Instr(op="ldf", rd=a % 8, field="l4.dport"))
            elif kind == "branch" and remaining > 1:
                target = i + 1 + (b % remaining)
                target = min(target, n)  # may jump to the terminal slot
                instrs.append(
                    Instr(op="jeq", ra=a % 8, src=("imm", b), target=target)
                )
            else:
                instrs.append(Instr(op="ldi", rd=a % 8, src=("imm", b)))
        instrs.append(Instr(op="accept"))
        return Program(instrs=tuple(instrs))

    return st.lists(
        st.tuples(
            st.sampled_from(["ldi", "alu", "ldf", "branch"]),
            st.integers(0, 7),
            st.integers(0, 0xFFFF),
        ),
        min_size=0,
        max_size=40,
    ).map(build)


class TestTermination:
    @given(prog=random_verified_program(), pkt=random_packet())
    @settings(max_examples=200)
    def test_verified_programs_terminate_within_length(self, prog, pkt):
        verify(prog)
        machine = OverlayMachine(prog, DEFAULT_COSTS)
        result = machine.execute(pkt, now_ns=0)
        assert result.instrs_executed <= len(prog)
        assert result.verdict in (VERDICT_ACCEPT, VERDICT_DROP)
        assert result.cost_ns == result.instrs_executed * DEFAULT_COSTS.overlay_instr_ns

    @given(prog=random_verified_program())
    @settings(max_examples=100)
    def test_verifier_accepts_generated_programs(self, prog):
        verify(prog)  # must not raise

    @given(target_delta=st.integers(1, 40))
    def test_verifier_rejects_any_back_edge(self, target_delta):
        pad = tuple(
            Instr(op="ldi", rd=0, src=("imm", 0)) for _ in range(target_delta)
        )
        prog = Program(
            instrs=pad + (Instr(op="jmp", target=0), Instr(op="accept"))
        )
        try:
            verify(prog)
            assert False, "back edge must be rejected"
        except VerifierError:
            pass


def rule_strategy():
    return st.builds(
        NetfilterRule,
        verdict=st.sampled_from([ACCEPT, DROP]),
        chain=st.just(CHAIN_OUTPUT),
        proto=st.one_of(st.none(), st.sampled_from([PROTO_TCP, PROTO_UDP])),
        sport=st.one_of(st.none(), st.integers(1, 0xFFFF)),
        dport=st.one_of(st.none(), st.integers(1, 0xFFFF)),
    )


class TestCompilerEquivalence:
    """The compiled overlay program must agree with the software rule
    engine on every packet — the §4.4 lowering is semantics-preserving."""

    @given(rules=st.lists(rule_strategy(), min_size=0, max_size=8),
           pkt=random_packet())
    @settings(max_examples=300)
    def test_header_rules_agree_with_software_engine(self, rules, pkt):
        from repro.kernel.netfilter import RuleTable

        table = RuleTable()
        for rule in rules:
            # Fresh copies: counters mutate.
            table.append(NetfilterRule(
                verdict=rule.verdict, chain=rule.chain, proto=rule.proto,
                sport=rule.sport, dport=rule.dport,
            ))
        software_verdict, _ = table.evaluate(CHAIN_OUTPUT, pkt, owner=None)

        prog = compile_filter_rules(rules)
        verify(prog)
        machine = OverlayMachine(prog, DEFAULT_COSTS)
        hw = machine.execute(pkt, 0)
        expected = VERDICT_DROP if software_verdict == DROP else VERDICT_ACCEPT
        assert hw.verdict == expected


# --- the reference model: the per-instruction interpreter ----------------


class ReferenceMachine:
    """The overlay interpreter as it ran before programs were compiled:
    one instruction at a time, with a fuel budget."""

    def __init__(self, program: Program, costs=DEFAULT_COSTS):
        self.program = program
        self.costs = costs
        self.counters: List[int] = [0] * program.n_counters
        self._meters: Dict[int, machine_mod._Meter] = {}
        self.packets_seen = 0

    def configure_meter(self, index: int, rate_bps: int, burst_bytes: int) -> None:
        self._meters[index] = machine_mod._Meter(
            rate_bps=rate_bps, burst_bytes=burst_bytes, tokens=float(burst_bytes))

    def execute(self, pkt: Packet, now_ns: int) -> ExecResult:
        regs = [0] * N_REGISTERS
        result = ExecResult(verdict=VERDICT_ACCEPT)
        self.packets_seen += 1
        pc = 0
        fuel = len(self.program.instrs) + 1
        instrs = self.program.instrs
        while pc < len(instrs):
            fuel -= 1
            if fuel < 0:
                raise OverlayError("exceeded fuel")
            instr = instrs[pc]
            result.instrs_executed += 1
            op = instr.op
            if op == OP_LDF:
                regs[instr.rd] = _ref_load_field(pkt, instr.field)
                pc += 1
            elif op in (OP_LDI, OP_MOV):
                regs[instr.rd] = _ref_value(regs, instr)
                pc += 1
            elif op in ALU_OPS:
                regs[instr.rd] = _ref_alu(op, regs[instr.rd], _ref_value(regs, instr))
                pc += 1
            elif op == OP_JMP:
                pc = instr.target
            elif op in BRANCH_OPS:
                taken = _ref_branch(op, regs[instr.ra], _ref_value(regs, instr))
                pc = instr.target if taken else pc + 1
            elif op == OP_SETQ:
                result.queue = _ref_value(regs, instr)
                pc += 1
            elif op == OP_SETCLS:
                result.sched_class = _ref_value(regs, instr)
                pc += 1
            elif op == OP_MIRROR:
                result.mirrors.append(instr.index)
                pc += 1
            elif op == OP_CNT:
                self.counters[instr.index] += 1
                pc += 1
            elif op == OP_METER:
                meter = self._meters.get(instr.index)
                ok = meter.conformant(now_ns, pkt.wire_len) if meter else True
                regs[instr.rd] = 1 if ok else 0
                pc += 1
            elif op == OP_DROP:
                result.verdict = VERDICT_DROP
                break
            else:
                assert op in (OP_ACCEPT, OP_HALT)
                result.verdict = VERDICT_ACCEPT
                break
        result.cost_ns = result.instrs_executed * self.costs.overlay_instr_ns
        return result


def _ref_value(regs: List[int], instr: Instr) -> int:
    kind, value = instr.src
    return regs[value] if kind == "reg" else value


def _ref_alu(op: str, a: int, b: int) -> int:
    return {
        "add": lambda: (a + b) & WORD_MASK,
        "sub": lambda: (a - b) & WORD_MASK,
        "and": lambda: a & b,
        "or": lambda: a | b,
        "xor": lambda: a ^ b,
        "shl": lambda: (a << (b & 31)) & WORD_MASK,
        "shr": lambda: a >> (b & 31),
    }[op]()


def _ref_branch(op: str, a: int, b: int) -> bool:
    return {
        "jeq": a == b, "jne": a != b, "jlt": a < b,
        "jgt": a > b, "jle": a <= b, "jge": a >= b,
    }[op]


def _ref_load_field(pkt: Packet, name: str) -> int:
    if name == "eth.type":
        return pkt.eth.ethertype
    if name == "arp.op":
        return pkt.arp.op if pkt.arp else 0
    if name.startswith("ip."):
        if pkt.ipv4 is None:
            return 0
        return {
            "ip.src": pkt.ipv4.src.value,
            "ip.dst": pkt.ipv4.dst.value,
            "ip.proto": pkt.ipv4.proto,
            "ip.dscp": pkt.ipv4.dscp,
            "ip.ttl": pkt.ipv4.ttl,
        }[name]
    if name in ("l4.sport", "l4.dport"):
        if pkt.l4 is None:
            return 0
        return pkt.l4.sport if name == "l4.sport" else pkt.l4.dport
    if name == "tcp.flags":
        return pkt.l4.flags if isinstance(pkt.l4, TcpHeader) else 0
    if name == "meta.len":
        return pkt.wire_len
    if name == "meta.conn_id":
        return pkt.meta.conn_id if pkt.meta.conn_id is not None else WORD_MASK
    if name == "meta.queue":
        return pkt.meta.queue_id if pkt.meta.queue_id is not None else 0
    raise OverlayError(f"unknown field {name!r}")


# --- strategies ----------------------------------------------------------

#: Values the fields of the drawn packets take, so compares sometimes hit.
INTERESTING = [0, 1, 2, 6, 17, 31, 32, 64, 0x0800, 0x0806, 80, 5_000, 9_000,
               IP_A.value, IP_B.value, 0xFFFF, WORD_MASK]
words = st.one_of(st.sampled_from(INTERESTING), st.integers(0, WORD_MASK))
regs = st.integers(0, N_REGISTERS - 1)
sources = st.one_of(st.tuples(st.just("reg"), regs), st.tuples(st.just("imm"), words))


#: Ops drawn before the final terminal; a terminal in the middle is drawn
#: rarely, so most programs run long enough to show their state.
MIDDLE_OPS = tuple(op for op in ALL_OPS if op not in TERMINAL_OPS) * 4 + TERMINAL_OPS


@st.composite
def verified_programs(draw):
    """Any program the verifier accepts: every opcode, every field, forward
    branches anywhere, terminals in the middle too."""
    n_counters = draw(st.integers(1, 4))
    n_meters = draw(st.integers(1, 3))
    length = draw(st.integers(1, 30))
    instrs = []
    for pc in range(length - 1):
        op = draw(st.sampled_from(MIDDLE_OPS))
        target = draw(st.integers(pc + 1, length - 1))
        if op == OP_LDF:
            instr = Instr(op=op, rd=draw(regs), field=draw(st.sampled_from(FIELDS)))
        elif op in (OP_LDI, OP_MOV) or op in ALU_OPS:
            instr = Instr(op=op, rd=draw(regs), src=draw(sources))
        elif op == OP_JMP:
            instr = Instr(op=op, target=target)
        elif op in BRANCH_OPS:
            instr = Instr(op=op, ra=draw(regs), src=draw(sources), target=target)
        elif op in (OP_SETQ, OP_SETCLS):
            instr = Instr(op=op, src=draw(sources))
        elif op == OP_MIRROR:
            instr = Instr(op=op, index=draw(st.integers(0, 7)))
        elif op == OP_CNT:
            instr = Instr(op=op, index=draw(st.integers(0, n_counters - 1)))
        elif op == OP_METER:
            instr = Instr(op=op, index=draw(st.integers(0, n_meters - 1)), rd=draw(regs))
        else:
            instr = Instr(op=op)
        instrs.append(instr)
    instrs.append(Instr(op=draw(st.sampled_from(TERMINAL_OPS))))
    prog = Program(instrs=tuple(instrs), n_counters=n_counters,
                   n_meters=n_meters, name="prop")
    verify(prog)
    return prog


@st.composite
def any_packets(draw):
    """A UDP datagram, a TCP segment or an ARP request, with or without
    the NIC's connection and queue metadata."""
    kind = draw(st.sampled_from(["udp", "tcp", "arp"]))
    if kind == "arp":
        pkt = make_arp_request(MAC_A, IP_A, IP_B)
    else:
        ports = st.one_of(st.sampled_from([80, 5_000, 9_000]), st.integers(1, 0xFFFF))
        payload = draw(st.integers(0, 1400))
        l4 = (UdpHeader(draw(ports), draw(ports), payload) if kind == "udp" else
              TcpHeader(draw(ports), draw(ports), flags=draw(st.integers(0, 0x3F))))
        ip = Ipv4Header(draw(st.sampled_from([IP_A, IP_B])), IP_B,
                        PROTO_UDP if kind == "udp" else PROTO_TCP,
                        payload + l4.wire_len, ttl=draw(st.integers(0, 255)),
                        dscp=draw(st.integers(0, 63)))
        pkt = Packet(EthernetHeader(MAC_B, MAC_A, ETHERTYPE_IPV4), ip, l4, None, payload)
    pkt.meta.conn_id = draw(st.one_of(st.none(), st.integers(0, 64)))
    pkt.meta.queue_id = draw(st.one_of(st.none(), st.integers(0, 16)))
    return pkt


def _meter_state(m):
    return {i: (meter.tokens, meter.last_fill_ns) for i, meter in m._meters.items()}


class TestCompiledMatchesInterpreter:
    """A compiled program gives exactly what the interpreter gives: every
    ExecResult field, the counters, the meters' token state and
    ``packets_seen``, packet after packet."""

    @given(prog=verified_programs(),
           meters=st.lists(st.one_of(st.none(), st.tuples(
               st.integers(1, 10 * units.GBPS), st.integers(1, 20_000))),
               min_size=3, max_size=3),
           pkts=st.lists(any_packets(), min_size=1, max_size=6),
           gaps=st.lists(st.integers(0, 50_000), min_size=6, max_size=6))
    @settings(max_examples=400, deadline=None)
    def test_same_results_and_state(self, prog, meters, pkts, gaps):
        compiled = OverlayMachine(prog, DEFAULT_COSTS)
        reference = ReferenceMachine(prog)
        for index, config in enumerate(meters[:prog.n_meters]):
            if config is not None:
                compiled.configure_meter(index, *config)
                reference.configure_meter(index, *config)
        now = 0
        for pkt, gap in zip(pkts, gaps):
            now += gap
            assert compiled.execute(pkt, now) == reference.execute(pkt, now)
            assert compiled.counters == reference.counters
            assert _meter_state(compiled) == _meter_state(reference)
            assert compiled.packets_seen == reference.packets_seen

    @given(body=st.lists(st.one_of(
               st.tuples(st.sampled_from(ALU_OPS + (OP_LDI, OP_MOV)), regs, sources),
               st.tuples(st.just(OP_LDF), regs, st.sampled_from(FIELDS))),
               min_size=1, max_size=12),
           shown=st.tuples(regs, regs), pkt=any_packets())
    @settings(max_examples=300, deadline=None)
    def test_register_arithmetic(self, body, shown, pkt):
        """Straight-line loads and ALU ops, with two registers shown
        through ``setq`` and ``setcls``: every value they compute is seen."""
        instrs = [Instr(op=op, rd=rd, field=arg) if op == OP_LDF
                  else Instr(op=op, rd=rd, src=arg) for op, rd, arg in body]
        instrs += [Instr(op=OP_SETQ, src=("reg", shown[0])),
                   Instr(op=OP_SETCLS, src=("reg", shown[1])), Instr(op=OP_ACCEPT)]
        prog = Program(instrs=tuple(instrs))
        verify(prog)
        got = OverlayMachine(prog, DEFAULT_COSTS).execute(pkt, 0)
        assert got == ReferenceMachine(prog).execute(pkt, 0)

    @given(uses=st.lists(st.integers(0, 2), min_size=1, max_size=6),
           meters=st.lists(st.one_of(st.none(), st.tuples(
               st.integers(1, 10 * units.GBPS), st.integers(1, 5_000))),
               min_size=3, max_size=3),
           pkts=st.lists(any_packets(), min_size=1, max_size=8),
           gaps=st.lists(st.integers(0, 20_000), min_size=8, max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_meters(self, uses, meters, pkts, gaps):
        """Meter ops over configured and unconfigured meters, packet after
        packet: the verdicts and every bucket's tokens and fill time."""
        lines = []
        for i, index in enumerate(uses):
            lines += [f"meter {index}, r{i % 8}", f"jeq r{i % 8}, 0, out"]
        prog = assemble("\n".join(lines + ["accept", "out: drop"]), n_meters=3)
        verify(prog)
        compiled = OverlayMachine(prog, DEFAULT_COSTS)
        reference = ReferenceMachine(prog)
        for index, config in enumerate(meters):
            if config is not None:
                compiled.configure_meter(index, *config)
                reference.configure_meter(index, *config)
        now = 0
        for pkt, gap in zip(pkts, gaps):
            now += gap
            assert compiled.execute(pkt, now) == reference.execute(pkt, now)
            assert _meter_state(compiled) == _meter_state(reference)

    @given(pkt=any_packets())
    @settings(max_examples=100, deadline=None)
    def test_every_field_reads_as_the_interpreter_reads_it(self, pkt):
        for name in FIELDS:
            prog = assemble(f"ldf r3, {name}\nsetq r3\nsetcls r3\naccept")
            got = OverlayMachine(prog, DEFAULT_COSTS).execute(pkt, 0)
            assert got == ReferenceMachine(prog).execute(pkt, 0), name

    def test_results_are_fresh_objects(self):
        """A caller may keep or mutate a result: no two share a mirror list."""
        prog = assemble("mirror 1\naccept")
        m = OverlayMachine(prog, DEFAULT_COSTS)
        pkt = make_udp(MAC_A, MAC_B, IP_A, IP_B, 1, 2, 3)
        a, b = m.execute(pkt, 0), m.execute(pkt, 0)
        assert a.mirrors == b.mirrors == [1]
        assert a.mirrors is not b.mirrors


def _fabric():
    sim = Simulator()
    fabric = FpgaFabric(sim, DEFAULT_COSTS)
    fabric.factory_flash(Bitstream("kopi", (("a", 64), ("b", 64))))
    return sim, fabric


class TestCompileOncePerFabric:
    PROGRAM = "ldf r0, l4.dport\njne r0, 80, ok\ndrop\nok: accept"

    def _count_compiles(self, monkeypatch):
        compiles = []
        original = machine_mod.compile_program

        def counting(program):
            compiles.append(program.name)
            return original(program)

        monkeypatch.setattr(machine_mod, "compile_program", counting)
        return compiles

    def test_nothing_compiles_at_load(self, monkeypatch):
        compiles = self._count_compiles(monkeypatch)
        sim, fabric = _fabric()
        done = fabric.load_overlay("a", assemble(self.PROGRAM, name="f"))
        sim.run()
        assert done.value is fabric.machine("a")
        assert compiles == []
        fabric.machine("a").execute(make_udp(MAC_A, MAC_B, IP_A, IP_B, 1, 80, 10), 0)
        assert compiles == ["f"]

    def test_equal_programs_on_one_fabric_compile_once(self, monkeypatch):
        compiles = self._count_compiles(monkeypatch)
        sim, fabric = _fabric()
        fabric.load_overlay("a", assemble(self.PROGRAM, name="first"))
        fabric.load_overlay("b", assemble(self.PROGRAM, name="second"))
        sim.run()
        pkt = make_udp(MAC_A, MAC_B, IP_A, IP_B, 1, 80, 10)
        a, b = fabric.machine("a"), fabric.machine("b")
        assert a.execute(pkt, 0).verdict == b.execute(pkt, 0).verdict == VERDICT_DROP
        assert a.execute(pkt, 0).verdict == VERDICT_DROP
        assert compiles == ["first"]
        # Each machine keeps its own state around the shared code.
        assert (a.packets_seen, b.packets_seen) == (2, 1)

    def test_other_fabrics_and_programs_compile_their_own(self, monkeypatch):
        compiles = self._count_compiles(monkeypatch)
        pkt = make_udp(MAC_A, MAC_B, IP_A, IP_B, 1, 80, 10)
        for name, text in (("one", self.PROGRAM), ("two", self.PROGRAM),
                           ("three", "accept")):
            sim, fabric = _fabric()
            fabric.load_overlay("a", assemble(text, name=name))
            sim.run()
            fabric.machine("a").execute(pkt, 0)
        assert compiles == ["one", "two", "three"]
