"""E16 — latency anatomy: the decomposition must be exact and cheap.

* CPU attribution error ≤ 1% and traced latency == measured latency on
  every plane, with the per-packet conservation invariant ("no lost
  nanoseconds") holding everywhere.
* The stage table reproduces the paper's headline: with the same 8-rule
  chain installed, kernel placement burns >10x KOPI host CPU per packet —
  and the decomposition says *where* (syscall + proto vs NIC pipeline).
* Tracing is observational: the untraced replay of the same workload
  produces identical measured rows.
"""

from dataclasses import replace

from repro.config import DEFAULT_COSTS
from repro.dataplanes import KernelPathDataplane
from repro.experiments.common import run_bulk_tx
from repro.experiments.e16_latency_anatomy import headline, run_e16


def test_e16_latency_anatomy():
    h = headline(run_e16(count=192))

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
