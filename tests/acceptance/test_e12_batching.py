"""E12 — batching: the coalesced-event fast path pays for itself.

Beyond the simulated amortization (fewer ns of simulated CPU per packet),
burst mode must also make the *simulator* cheaper: one heap entry per burst
instead of one per packet means fewer events fired per simulated packet.
"""

from dataclasses import replace

from repro.apps import BulkSender
from repro.config import DEFAULT_COSTS
from repro.dataplanes import BypassDataplane, KernelPathDataplane, Testbed
from repro.experiments.e12_batching import headline, run_e12

COUNT = 2_048


def _events_fired(plane_cls, batch, count=COUNT):
    costs = replace(DEFAULT_COSTS, batch_size=batch)
    tb = Testbed(plane_cls, costs=costs)
    app = BulkSender(tb, comm="bulk", user="bob", core_id=1,
                     payload_len=1_458, count=count, burst=batch)
    app.start()
    tb.run_all()
    return tb.sim.events_fired


def test_e12_batching():
    h = headline(run_e12(count=320))
    # Acceptance: ring-based planes amortize monotonically; the sidecar's
    # physical movement does not amortize.
    assert h["ring_planes_monotone"]
    assert h["kernel_amortization_x"] > 1.1
    assert h["bypass_amortization_x"] > 1.5
    assert h["sidecar_amortization_x"] < 1.05


def test_e12_bursts_fire_fewer_events():
    for plane_cls in (BypassDataplane, KernelPathDataplane):
        per_packet, burst = _events_fired(plane_cls, 1), _events_fired(plane_cls, 32)
        # The coalesced-event fast path: strictly fewer simulator events.
        assert burst < per_packet, (
            f"{plane_cls.name}: burst mode fired {burst} events, "
            f"per-packet fired {per_packet}"
        )
