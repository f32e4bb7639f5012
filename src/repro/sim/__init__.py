"""Discrete-event simulation substrate.

This package provides the deterministic discrete-event engine on which the
simulated kernel, network subsystem, and applications run.  All simulated
time is expressed in *microseconds* (float), matching the granularity of
the cost measurements in the paper (Table 1 reports primitive costs of a
few microseconds; per-request CPU costs are 105--338 microseconds).

Public surface:

- :class:`~repro.sim.engine.Simulation` -- the event loop; simulated
  time is its plain ``now`` attribute.
- :class:`~repro.sim.events.EventQueue` -- a heap of
  ``[when, seq, callback, args]`` entries, each the handle of its event.
- :class:`~repro.sim.rng.SeededRng` -- deterministic random source.
- :class:`~repro.sim.tracing.TraceBus` -- structured trace/telemetry bus.
"""

from repro.sim.engine import Simulation
from repro.sim.events import EventQueue
from repro.sim.rng import SeededRng
from repro.sim.tracing import TraceBus, TraceRecord

__all__ = [
    "EventQueue",
    "SeededRng",
    "Simulation",
    "TraceBus",
    "TraceRecord",
]
