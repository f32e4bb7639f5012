"""Lottery scheduling (Waldspurger & Weihl, OSDI 1994).

The paper cites lottery scheduling as one of the allocation models a
resource container can carry attributes for (section 4.3) and as related
hierarchical-scheduling work (section 6).  We provide it as an
alternative policy for the scheduler-ablation benchmark: randomized
proportional share, with each entity's ticket count taken from the
``tickets`` field of its charge container's scheduler state (or a
default when it has no principal).
"""

from __future__ import annotations

from typing import Optional

from repro.core.container import ResourceContainer
from repro.sched.base import Schedulable, Scheduler
from repro.sched.state import SchedulerNodeState
from repro.sim.rng import SeededRng

DEFAULT_TICKETS = 100


class LotteryScheduler(Scheduler):
    """Randomized proportional-share scheduling by ticket counts."""

    policy_name = "lottery"

    def __init__(self, rng: SeededRng, quantum_us: float = 1_000.0) -> None:
        super().__init__()
        self.rng = rng
        self.quantum_us = quantum_us

    @staticmethod
    def tickets_of(entity: Schedulable) -> int:
        """Ticket count for one entity (from its charge container)."""
        container = entity.charge_container()
        if container is None:
            return DEFAULT_TICKETS
        state = container.sched_state
        if isinstance(state, SchedulerNodeState):
            return max(1, state.tickets)
        return DEFAULT_TICKETS

    @staticmethod
    def set_tickets(container: ResourceContainer, tickets: int) -> None:
        """Assign a container's ticket count."""
        if tickets < 1:
            raise ValueError(f"tickets must be >= 1, got {tickets}")
        state = container.sched_state
        if not isinstance(state, SchedulerNodeState):
            state = SchedulerNodeState()
            container.sched_state = state
        state.tickets = tickets

    def pick_for_cpu(
        self, now: float, cpu: int, exclude: Optional[set] = None
    ) -> Optional[Schedulable]:
        runnable = [
            e
            for eid, e in self._entities.items()
            if e.runnable and (exclude is None or eid not in exclude)
        ]
        if not runnable:
            return None
        total = sum(self.tickets_of(e) for e in runnable)
        winner = self.rng.randint(1, total)
        for entity in runnable:
            winner -= self.tickets_of(entity)
            if winner <= 0:
                return entity
        return runnable[-1]  # pragma: no cover - float-free, unreachable

    def charge(
        self,
        entity: Schedulable,
        container: Optional[ResourceContainer],
        amount_us: float,
        now: float,
    ) -> None:
        """Lottery scheduling is memoryless; only the sanitizer's
        reconciliation counter records the charge."""
        self.note_charge(container, amount_us, now)
