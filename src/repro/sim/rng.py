"""Deterministic random number source.

Every stochastic choice in the simulation (client think times, request
interarrivals, attack source addresses) draws from a :class:`SeededRng`.
Components that need independent streams derive child generators with
:meth:`SeededRng.fork`, so adding a new consumer never perturbs the draws
seen by existing ones.
"""

from __future__ import annotations

import random
import zlib
from typing import Sequence, TypeVar

T = TypeVar("T")


class SeededRng:
    """A named, forkable wrapper around :class:`random.Random`."""

    def __init__(self, seed: int, name: str = "root") -> None:
        self.seed = int(seed)
        self.name = name
        self._random = random.Random(self.seed)
        self._fork_count = 0

    def fork(self, name: str) -> "SeededRng":
        """Derive an independent child stream.

        The child's seed mixes the parent seed, the child name, and a
        fork counter, so forks are reproducible and order-stable.  The
        mix must not use :func:`hash` on strings: that is randomised
        per process (PYTHONHASHSEED), which would make "seeded" runs
        differ between processes.
        """
        self._fork_count += 1
        payload = f"{self.seed}|{self._fork_count}|{name}".encode()
        child_seed = (
            (zlib.crc32(payload) << 32) ^ zlib.adler32(payload[::-1])
        ) & 0x7FFF_FFFF_FFFF_FFFF
        return SeededRng(child_seed, name=f"{self.name}/{name}")

    def uniform(self, low: float, high: float) -> float:
        """Uniform float in [low, high]."""
        return self._random.uniform(low, high)

    def expovariate(self, rate: float) -> float:
        """Exponential variate with the given rate (events per unit time)."""
        return self._random.expovariate(rate)

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in [low, high] inclusive.

        The draw :meth:`random.Random.randint` makes, without its
        ``randrange`` frames (a SYN flood draws one per spoofed packet).
        """
        width = high - low + 1
        if width <= 0:
            raise ValueError(
                f"empty range for randrange() ({low}, {high + 1}, {width})"
            )
        return low + self._random._randbelow(width)

    def choice(self, items: Sequence[T]) -> T:
        """Uniform choice from a non-empty sequence."""
        return self._random.choice(items)

    def random(self) -> float:
        """Uniform float in [0, 1)."""
        return self._random.random()

    def shuffle(self, items: list) -> None:
        """In-place deterministic shuffle."""
        self._random.shuffle(items)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeededRng(seed={self.seed}, name={self.name!r})"
