"""Grep-lint: no NIC-side charging site may bill work anonymously.

Every place NIC-side work is billed — SRAM allocations, DMA byte
transfers, SmartNIC pipeline passes, DDIO line touches, conntrack entry
updates — must resolve who the work belongs to: by passing a resolved
``tenant=``/``tenant`` argument, resolving one nearby
(``_tenant_of(`` / ``resolve_uid(``), or carrying an explicit
``# tenant:`` marker pointing at where the attribution happens (e.g. the
packet's stamped ``meta.tenant_tid``). A new charging site added without
any of these fails this test — the "every resource touch is
tenant-attributed" invariant stays enforceable by inspection, exactly
like the tracing spine's ``test_trace_coverage``.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: The NIC-side files where work is billed. The mechanism modules
#: (``nic/smartnic/sram.py``, ``nic/tenant_sched.py``) implement the
#: accounting itself and are covered by their own unit tests.
SCOPE = (
    "core/nic_dataplane.py",
    "core/control_plane.py",
    "core/conntrack.py",
    "nic/base.py",
    "nic/fixed_function.py",
    "nic/rings.py",
)

#: A billing call: SRAM bytes, DMA bytes, pipeline/DMA latency charges,
#: DDIO line writes, or a conntrack entry update.
CHARGING = re.compile(
    r"sram\.alloc\(|\.dma_read\(|\.dma_write\(|"
    r"charge\(STAGE_NIC_PIPELINE|charge\(STAGE_DMA|conntrack\.observe\("
)

#: Evidence the site is attributed: a tenant argument or resolution in
#: the surrounding lines, or a ``# tenant:`` marker naming where the
#: attribution lands.
ATTRIBUTION = re.compile(r"tenant")

# Attribution usually precedes the charge (the tenant is resolved, then
# billed); the KOPI RX hit path assembles its fixed charges first and
# resolves the tenant for the arbitration charge just below them.
BEFORE, AFTER = 12, 7


def _charge_sites():
    for rel in SCOPE:
        path = SRC / rel
        if not path.exists():
            continue
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if CHARGING.search(line):
                window = "\n".join(
                    lines[max(0, i - BEFORE): i + 1 + AFTER]
                )
                yield rel, i + 1, line.strip(), window


def test_scan_finds_the_known_charging_sites():
    """The billing pattern must actually match the codebase — if the
    charging calls were all renamed the lint would silently pass."""
    sites = list(_charge_sites())
    assert len(sites) >= 12, [f"{r}:{n}" for r, n, _l, _w in sites]
    files = {r for r, _n, _l, _w in sites}
    for expected in ("core/nic_dataplane.py", "core/control_plane.py",
                     "core/conntrack.py"):
        assert expected in files, expected


def test_every_nic_charge_names_its_tenant():
    naked = [
        f"{rel}:{lineno}: {line}"
        for rel, lineno, line, window in _charge_sites()
        if not ATTRIBUTION.search(window)
    ]
    assert not naked, (
        "NIC-side charging sites with no tenant attribution (pass a "
        "resolved tenant=, resolve one nearby, or add a '# tenant:' "
        "marker naming where the work is attributed):\n" + "\n".join(naked)
    )
