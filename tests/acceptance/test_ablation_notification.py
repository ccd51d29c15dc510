"""Ablation — §4.3 notification delivery: interrupts vs polled monitor.

"The control plane on the kernel can also choose to enable interrupts for
notification queues with low activity. This allows Norman to support both
blocking and non-blocking I/O while making efficient use of CPU cycles."

Interrupt delivery pays a fixed per-wake cost but wakes immediately; a
polled monitor batches wakes at its scan interval — cheap per event, but
adds up to one interval of latency. The right choice depends on queue
activity, which is why it is a control-plane knob and not hardware policy.
"""

from repro import units
from repro.apps import BlockingWorker
from repro.core import NormanOS
from repro.dataplanes import Testbed

MODES = (
    ("interrupt", None),
    ("poll", 10 * units.US),
    ("poll", 100 * units.US),
)
N_MESSAGES = 20
GAP_NS = 300_000


def run_modes():
    rows = []
    for mode, interval in MODES:
        tb = Testbed(NormanOS)
        worker = BlockingWorker(tb, port=7000, comm="worker", user="bob", core_id=1)
        if mode == "poll":
            tb.dataplane.control.set_monitor_mode(worker.proc.pid, "poll", interval)
        worker.start()
        for i in range(N_MESSAGES):
            tb.sim.after(GAP_NS * (i + 1), tb.peer.send_udp, 555, 7000, 100)
        window = GAP_NS * (N_MESSAGES + 2)
        tb.run(until=window)
        worker.stop()
        tb.run_all()
        starts = worker.service_starts()
        sends = [GAP_NS * (i + 1) for i in range(len(starts))]
        lats = sorted(s - t for s, t in zip(starts, sends))
        rows.append({
            "mode": mode if interval is None else f"poll {interval // units.US} us",
            "served": worker.served,
            "wake_us_p50": (lats[len(lats) // 2] / units.US) if lats else 0.0,
            "wake_us_max": (lats[-1] / units.US) if lats else 0.0,
        })
    return rows


def test_ablation_notification_delivery():
    rows = run_modes()
    by_mode = {r["mode"]: r for r in rows}
    assert all(r["served"] == N_MESSAGES for r in rows)
    # Interrupts: lowest latency.
    assert by_mode["interrupt"]["wake_us_p50"] < by_mode["poll 10 us"]["wake_us_p50"]
    # Polling latency scales with the scan interval.
    assert (by_mode["poll 100 us"]["wake_us_p50"]
            > by_mode["poll 10 us"]["wake_us_p50"])
    assert by_mode["poll 100 us"]["wake_us_max"] <= 150  # bounded by ~interval
