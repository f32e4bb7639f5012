"""The discrete-event simulation loop.

:class:`Simulation` owns simulated time (:attr:`Simulation.now`), the
event queue, the root RNG, and the trace bus.  Components schedule
callbacks; :meth:`Simulation.run` drains the queue in timestamp order,
advancing ``now`` as it goes.  Nothing in the system reads wall-clock
time, which is what makes runs deterministic and replayable.

The engine knows nothing about kernels or networks; it is a generic
deterministic executor, which keeps it easy to test in isolation and to
reuse for workload generators that live "outside" the simulated host.

The dispatch loop is the hottest code in the repository -- every slice,
packet, and timer passes through it -- so it is written lean: one list
per event, bound methods hoisted out of the loop, ``now`` a plain
attribute advanced by direct store (queue order already guarantees
monotonicity), and the per-event loop itself in
:meth:`EventQueue.dispatch_batch`.
"""

from __future__ import annotations

import itertools
import os
from typing import Any, Callable, Optional

from repro.sim.events import EventQueue
from repro.sim.rng import SeededRng
from repro.sim.tracing import TraceBus

#: Environment switch for the charging sanitizer.  Because it is an env
#: var it reaches simulations built deep inside experiment point runners
#: and sweep worker processes.
SANITIZE_ENV = "REPRO_SANITIZE"

#: Environment switch for observability; reaches the same places.
TRACE_ENV = "REPRO_TRACE"


def env_flag(name: str) -> bool:
    """Read an on/off switch from the environment.

    Unset, ``""`` and ``"0"`` mean off and ``"1"`` means on.  Any other
    value raises :class:`ValueError` naming the variable, so a typo
    such as ``REPRO_SANITIZE=false`` cannot silently turn a check on
    (or, read the other way, off).
    """
    raw = os.environ.get(name, "")
    if raw in ("", "0"):
        return False
    if raw == "1":
        return True
    raise ValueError(f"{name} must be unset, '', '0' or '1'; got {raw!r}")


class Simulation:
    """Deterministic discrete-event simulator.

    Args:
        seed: seed for the root RNG; identical seeds give identical runs.
        trace: optionally share a pre-built trace bus.
        sanitize: ask kernels built on this simulation to install the
            charging-conservation sanitizer
            (:mod:`repro.analysis.sanitizer`), and a cluster built on it
            to install its cross-host conservation checker.  Purely
            observational -- a sanitized run is byte-identical to an
            unsanitized one.  ``REPRO_SANITIZE=1`` enables it globally.
        observe: ask kernels built on this simulation to attach an
            :class:`repro.obs.Observability` (metrics registry, request
            tracer, profiler).  Also observational; ``REPRO_TRACE=1``
            enables it globally.

    Both switches are resolved here, once, into :attr:`sanitize` and
    :attr:`observe` (argument or environment, see :func:`env_flag`);
    kernels and clusters read only those attributes, and import
    :mod:`repro.analysis` or :mod:`repro.obs` only when one is on.
    """

    def __init__(
        self,
        seed: int = 0,
        trace: Optional[TraceBus] = None,
        sanitize: bool = False,
        observe: bool = False,
    ) -> None:
        #: Current simulated time in microseconds.  Only the dispatch
        #: loop and run()'s horizon step write it, and never backwards.
        self.now = 0.0
        self.queue = EventQueue()
        self.rng = SeededRng(seed)
        self.trace = trace if trace is not None else TraceBus()
        self.sanitize = env_flag(SANITIZE_ENV) or bool(sanitize)
        self.observe = env_flag(TRACE_ENV) or bool(observe)
        #: Attached Observability (set by the kernel when observing).
        self.observability = None
        #: Callbacks run whenever the dispatch loop exits, before run()
        #: returns.  Kernels register their batched-charging flush here
        #: so ledgers are settled at every observation point.
        self.flush_hooks: list[Callable[[], None]] = []
        self._id_streams: dict[str, itertools.count] = {}
        self._events_dispatched = 0
        self._running = False
        self._stop_requested = False

    def id_stream(self, name: str) -> itertools.count:
        """This simulation's id stream for ``name`` (``itertools.count(1)``,
        created on first use).

        Every caller asking for the same name shares one stream, so the
        kernels of a cluster on one engine draw unique ids, while each
        new simulation starts every stream at 1 and never depends on
        what ran before it in the process.  Owners bind their stream
        once at construction and pay one ``next()`` per id after that.
        """
        return self._id_streams.setdefault(name, itertools.count(1))

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    @property
    def events_dispatched(self) -> int:
        """Total number of events dispatched so far."""
        return self._events_dispatched

    def at(self, when: float, callback: Callable[..., None], *args: Any) -> list:
        """Schedule ``callback`` at absolute simulated time ``when``.

        Returns the queue entry, the handle :meth:`cancel` takes.
        """
        now = self.now
        if when == now:
            return self.queue.schedule_now(when, callback, args)
        if when < now:
            raise ValueError(
                f"cannot schedule into the past: now={now}, when={when}"
            )
        return self.queue.schedule(when, callback, args)

    def after(self, delay: float, callback: Callable[..., None], *args: Any) -> list:
        """Schedule ``callback`` after ``delay`` microseconds.

        A zero delay goes through :meth:`EventQueue.schedule_now`: run
        from an event callback, it may take the queue's tail slot and
        run straight after that callback, in the same ``(when, seq)``
        order the heap would give it.
        """
        if delay == 0.0:
            return self.queue.schedule_now(self.now, callback, args)
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self.queue.schedule(self.now + delay, callback, args)

    def cancel(self, handle: list) -> None:
        """Cancel a pending event; a no-op once it fired or was cancelled."""
        self.queue.cancel(handle)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> float:
        """Dispatch events until the queue empties or a bound is reached.

        Args:
            until: stop once simulated time would exceed this value;
                ``now`` is left at exactly ``until`` when the bound is hit.
            max_events: safety valve for runaway simulations.

        Returns:
            The simulated time at which the run stopped.
        """
        if self._running:
            raise RuntimeError("simulation loop is not reentrant")
        self._running = True
        self._stop_requested = False
        queue = self.queue
        try:
            # The per-event loop lives in the queue (dispatch_batch), so
            # every hot step runs on locals hoisted once per run, not
            # once per event.  The queue stores each event's time into
            # self.now (dispatch order guarantees monotonicity) and
            # counts into _events_dispatched itself so the tally
            # survives a callback exception.
            limit = 0x7FFF_FFFF_FFFF_FFFF if max_events is None else max_events
            next_when, drained = queue.dispatch_batch(self, until, limit)
            if until is not None and self.now < until:
                # Reuse the batch's verdict for the common exits (queue
                # drained, or the head event sits past the horizon);
                # only stop()/max_events exits still need to ask the
                # queue whether anything is left before the horizon.
                if drained or next_when is not None:
                    self.now = until
                elif queue.peek_time() is None:
                    self.now = until
        finally:
            self._running = False
            for hook in self.flush_hooks:
                hook()
        return self.now

    def stop(self) -> None:
        """Request the run loop to stop after the current event."""
        self._stop_requested = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Simulation(now={self.now:.1f}us, "
            f"pending={len(self.queue)}, dispatched={self._events_dispatched})"
        )
