"""Discrete-event simulation core.

The engine keeps simulated time as integer nanoseconds and executes callbacks
in (time, insertion-order) order, which makes every run deterministic for a
fixed seed. On top of the raw engine sit :class:`~repro.sim.events.Signal`
(one-shot promise) and :class:`~repro.sim.process.SimProcess`
(generator-based coroutine), which is how applications, kernel threads, and
NIC engines are written.
"""

from .engine import EventHandle, Simulator
from .events import AllOf, AnyOf, Signal, SucceedWith
from .fastforward import FastForwardController, FlowProfile
from .metrics import Counter, Histogram, MetricSet, RateMeter, TimeSeries
from .process import SimProcess
from .rand import make_rng

__all__ = [
    "AllOf",
    "AnyOf",
    "Counter",
    "EventHandle",
    "FastForwardController",
    "FlowProfile",
    "Histogram",
    "MetricSet",
    "RateMeter",
    "Signal",
    "SimProcess",
    "Simulator",
    "SucceedWith",
    "TimeSeries",
    "make_rng",
]
