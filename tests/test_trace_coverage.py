"""Grep-lint: no core-time charge may bypass the tracing spine.

Every ``Core.execute(...)`` call site in ``src/repro`` (outside
``repro/trace`` itself) must attribute its nanoseconds — by charging spans
(``charge(`` / ``fill_gap(``), recording loose work (``loose(``), passing a
context into the core (``ctx=``), delegating to an attributed helper
(``_payload(``), or carrying an explicit ``# trace:`` marker pointing at
where the attribution happens. A new charging site added without any of
these fails this test, keeping the "no lost nanoseconds" invariant
enforceable by inspection.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

# A core-occupying execute: the receiver is a CPU core (``core``,
# ``_core``/``_score``, or an index into the cpus array). Overlay/FPGA
# program ``.execute(pkt, now)`` calls are a different API and don't
# charge core time.
CORE_EXECUTE = re.compile(r"(?:core|_score|cpus\[[^\]]+\])\.execute\(")

ATTRIBUTION = re.compile(
    r"charge\(|loose\(|fill_gap\(|ctx=|_payload\(|#\s*trace:"
)

# Lines of context searched around each call site: attribution usually
# precedes the execute (cost assembly), but multi-line calls put the
# ``loose(...)`` inside the argument list just after it.
BEFORE, AFTER = 20, 5

# repro/trace is the spine itself; host/cpu.py is Core.execute's own
# definition (plus its docstring example).
EXCLUDED = {"trace", "host/cpu.py"}


def _excluded(rel: str) -> bool:
    return rel.startswith("trace/") or rel in EXCLUDED


def _charge_sites():
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        if _excluded(rel):
            continue
        lines = path.read_text().splitlines()
        for i, line in enumerate(lines):
            if CORE_EXECUTE.search(line):
                window = "\n".join(
                    lines[max(0, i - BEFORE): i + 1 + AFTER]
                )
                yield rel, i + 1, line.strip(), window


def test_scan_finds_the_known_charging_sites():
    """The receiver pattern must actually match the codebase — if every
    dataplane renamed its core handles the lint would silently pass."""
    sites = list(_charge_sites())
    assert len(sites) >= 15, [f"{r}:{n}" for r, n, _l, _w in sites]
    files = {r for r, _n, _l, _w in sites}
    for expected in ("kernel/netstack.py", "kernel/syscall.py",
                     "dataplanes/sidecar.py", "dataplanes/bypass.py",
                     "core/library.py", "apps/workers.py"):
        assert expected in files, expected


def test_every_core_charge_is_stage_attributed():
    naked = [
        f"{rel}:{lineno}: {line}"
        for rel, lineno, line, window in _charge_sites()
        if not ATTRIBUTION.search(window)
    ]
    assert not naked, (
        "core-time charges with no stage attribution (add charge()/loose()/"
        "ctx=, or a '# trace:' marker naming where the span is charged):\n"
        + "\n".join(naked)
    )
