"""E16 — latency anatomy bench: the decomposition must be exact, cheap,
and exportable.

Replays the traced E1/E2 decomposition and asserts the acceptance shape:

* CPU attribution error ≤ 1% and traced latency == measured latency on
  every plane, with the per-packet conservation invariant ("no lost
  nanoseconds") holding everywhere.
* The stage table reproduces the paper's headline: with the same 8-rule
  chain installed, kernel placement burns >10x KOPI host CPU per packet —
  and the decomposition says *where* (syscall + proto vs NIC pipeline).
* Tracing is observational: the untraced replay of the same workload
  produces identical measured rows.

Writes ``e16_latency_anatomy.json`` next to the E12–E15 artifacts and a
sample Perfetto/Chrome trace (``e16_kernel_trace.json``, loadable at
https://ui.perfetto.dev).
"""

import json
from pathlib import Path

from repro.experiments.common import fmt_table, run_bulk_tx
from repro.experiments.e16_latency_anatomy import headline, run_e16
from repro.dataplanes import KernelPathDataplane
from repro.trace import write_trace
from repro.config import DEFAULT_COSTS
from dataclasses import replace

ARTIFACT = Path(__file__).parent / "artifacts" / "e16_latency_anatomy.json"
SAMPLE_TRACE = Path(__file__).parent / "artifacts" / "e16_kernel_trace.json"


def test_e16_latency_anatomy(once):
    result = once(run_e16, count=192)
    print("\n" + fmt_table(result["rows"]))
    print("\n" + fmt_table(result["stage_rows"]))
    h = headline(result)
    print(f"\nheadline: kernel/KOPI cpu {h['kernel_vs_kopi_cpu_traced']:.1f}x "
          f"traced ({h['kernel_vs_kopi_cpu_measured']:.1f}x measured), "
          f"max cpu err {h['max_cpu_err_pct']:.3f}%, "
          f"conserved={h['all_conserved']}")

    # Acceptance: exact conservation, ≤1% attribution error, and the
    # paper's interposition-placement ratio recovered from the stages.
    assert h["all_conserved"]
    assert h["max_cpu_err_pct"] <= 1.0
    assert h["max_latency_err_pct"] <= 1.0
    assert h["kernel_vs_kopi_cpu_traced"] > 10.0

    # Observational: the untraced kernel replay measures identically.
    base = run_bulk_tx(KernelPathDataplane, 1_458, 192)
    traced = run_bulk_tx(KernelPathDataplane, 1_458, 192,
                         costs=replace(DEFAULT_COSTS, trace=True))
    assert base == traced

    ARTIFACT.parent.mkdir(parents=True, exist_ok=True)
    ARTIFACT.write_text(
        json.dumps(
            {"headline": h, "rows": result["rows"],
             "stages": result["stage_rows"]},
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {ARTIFACT}")

    # A loadable sample: the kernel plane's first 32 packets, one
    # gap-free bar per packet (the visual form of the invariant).
    row = run_bulk_tx(KernelPathDataplane, 1_458, 64,
                      costs=replace(DEFAULT_COSTS, trace=True),
                      return_tb=True)
    n = write_trace(row.pop("tb").machine.tracer, SAMPLE_TRACE, limit=32)
    print(f"wrote {SAMPLE_TRACE} ({n} events)")
