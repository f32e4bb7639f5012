"""Classic decay-usage time-share scheduler (4.3BSD style).

This is the "unmodified general-purpose kernel" scheduling flavour that
the paper contrasts with (section 3): numeric priority degrades as recent
CPU usage accumulates, and usage decays over time, so CPU-hungry entities
sink and interactive ones rise.  Provided for ablation benchmarks; the
main experiments use :class:`~repro.sched.container_sched.ContainerScheduler`
for all system modes (with one container per process in the unmodified
and LRP modes, which reproduces classical per-process time-sharing).
"""

from __future__ import annotations

from typing import Optional

from repro.core.container import ResourceContainer
from repro.sched.base import Schedulable, Scheduler


class UnixTimeshareScheduler(Scheduler):
    """Decay-usage priority scheduling over schedulable entities.

    Priority (lower value = runs first) is ``usage / decay_scale`` where
    usage is an exponentially decayed accumulator of charged CPU time.
    Decay happens lazily, per entity, whenever usage is read.
    """

    policy_name = "timeshare"

    def __init__(
        self,
        quantum_us: float = 1_000.0,
        decay_half_life_us: float = 1_000_000.0,
    ) -> None:
        super().__init__()
        self.quantum_us = quantum_us
        self.decay_half_life_us = decay_half_life_us
        self._usage: dict[int, float] = {}
        self._usage_stamp: dict[int, float] = {}
        self._attach_seq = 0
        self._order: dict[int, int] = {}

    def on_attach(self, entity: Schedulable) -> None:
        self._usage[id(entity)] = 0.0
        self._usage_stamp[id(entity)] = 0.0
        self._attach_seq += 1
        self._order[id(entity)] = self._attach_seq

    def detach(self, entity: Schedulable) -> None:
        super().detach(entity)
        self._usage.pop(id(entity), None)
        self._usage_stamp.pop(id(entity), None)
        self._order.pop(id(entity), None)

    def decayed_usage(self, entity: Schedulable, now: float) -> float:
        """Current decayed usage accumulator for ``entity``."""
        key = id(entity)
        usage = self._usage.get(key, 0.0)
        stamp = self._usage_stamp.get(key, now)
        elapsed = max(0.0, now - stamp)
        if elapsed > 0.0 and usage > 0.0:
            usage *= 0.5 ** (elapsed / self.decay_half_life_us)
            self._usage[key] = usage
            self._usage_stamp[key] = now
        return usage

    def pick_for_cpu(
        self, now: float, cpu: int, exclude: Optional[set] = None
    ) -> Optional[Schedulable]:
        best: Optional[Schedulable] = None
        best_key: Optional[tuple] = None
        for eid, entity in self._entities.items():
            if not entity.runnable:
                continue
            if exclude is not None and eid in exclude:
                continue
            key = (self.decayed_usage(entity, now), self._order.get(eid, 0))
            if best_key is None or key < best_key:
                best_key = key
                best = entity
        return best

    def charge(
        self,
        entity: Schedulable,
        container: Optional[ResourceContainer],
        amount_us: float,
        now: float,
    ) -> None:
        if amount_us <= 0.0:
            return
        self.note_charge(container, amount_us, now)
        self.decayed_usage(entity, now)  # fold in pending decay first
        key = id(entity)
        if key in self._usage:
            self._usage[key] += amount_us
            self._usage_stamp[key] = now
