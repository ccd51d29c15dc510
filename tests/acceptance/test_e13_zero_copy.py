"""E13 — zero copy: the copy-elision crossover.

Zerocopy loses below the pinning break-even and wins above it, the
sidecar's per-byte coherence copies don't move at all, and a large-message
kernel run moves its bytes from the copied column to the elided one.
"""

from repro.apps import BulkSender
from repro.config import DEFAULT_COSTS
from repro.dataplanes import KernelPathDataplane, Testbed
from repro.experiments.common import copy_summary
from repro.experiments.e13_zero_copy import headline, run_e13

COUNT = 2_048
PAYLOAD = 32_768  # well above the ~14 KB pinning break-even


def _kernel_point(zerocopy: bool):
    costs = (
        DEFAULT_COSTS.replace(tx_zerocopy=True, rx_zerocopy=True)
        if zerocopy
        else DEFAULT_COSTS
    )
    tb = Testbed(KernelPathDataplane, costs=costs)
    app = BulkSender(tb, comm="bulk", user="bob", core_id=1,
                     payload_len=PAYLOAD, count=COUNT)
    app.start()
    tb.run_all()
    row = copy_summary(tb.machine.copies)
    row["sim_goodput_gbps"] = app.goodput_bps() / 1e9
    return row


def test_e13_zero_copy():
    h = headline(run_e13(count=64))
    # Acceptance: the crossover exists and brackets the modeled break-even —
    # zerocopy wins large kernel messages, loses below the pinning cost.
    assert h["crossover_measured_B"] is not None
    assert h["largest_losing_B"] is not None
    assert h["largest_losing_B"] < h["break_even_model_B"] <= h["crossover_measured_B"]
    assert h["kernel_large_msg_win_ns"] > 0
    assert h["kernel_small_msg_penalty_ns"] > 0
    # Sidecar coherence copies are per-byte physical movement: unaffected.
    assert h["sidecar_unaffected"]
    # Bypass-class planes were already zero-copy: the knobs are no-ops.
    assert h["bypass_unaffected"] and h["kopi_unaffected"]


def test_e13_large_message_elision():
    cp, zc = _kernel_point(zerocopy=False), _kernel_point(zerocopy=True)
    # Elision moves bytes out of the copied column, not into thin air.
    assert zc["bytes_elided"] == cp["cpu_bytes_copied"] > 0
    assert zc["cpu_bytes_copied"] == 0
    # Above break-even, the zerocopy run finishes the same simulated work
    # with at least the copy run's goodput.
    assert zc["sim_goodput_gbps"] >= cp["sim_goodput_gbps"]
