"""Declarative sweep engine: parallel execution + content-addressed cache.

Every figure in the paper is a grid of fully independent
(experiment, config params, seed) simulation points -- embarrassingly
parallel work that the harnesses used to run as a serial loop, paying
every point on every invocation.  This module gives them:

* **A point-grid API.**  A harness registers one module-level *point
  runner* (:func:`point_runner`) and describes its figure as a list of
  :class:`SweepPoint` values.  Points carry only JSON-serialisable
  parameters, so they are hashable, picklable, and stable across
  processes.

* **A parallel executor.**  :func:`run_points` fans points out to a
  ``multiprocessing`` pool (``jobs`` workers).  Results are merged back
  by *point index*, never by completion order, so the output is
  byte-identical to a serial run.  Point runners build their entire
  simulated world, ids included, from their parameters and a seed (ids
  are per-simulation, drawn from ``Simulation.id_stream``), which makes
  a fresh worker process and an in-process call interchangeable.

* **A content-addressed result cache.**  Each point's key is the SHA-256
  digest of (the ``repro`` source tree, the experiment name, the
  canonical JSON of its params, the seed).  Warm re-runs load finished
  points from ``.sweepcache/`` instead of recomputing them; any source
  edit changes the tree digest and invalidates everything, so the cache
  can never serve results from stale code.  ``cache=False`` bypasses it.

The engine is deliberately ignorant of figures and series: harnesses
keep full control of how the flat result list is folded back into
:class:`~repro.experiments.common.FigureResult` tables.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

#: Environment variable overriding the default cache directory
#: (used by tests to keep scratch caches out of the repo).
CACHE_DIR_ENV = "REPRO_SWEEPCACHE_DIR"

#: Default on-disk cache location, relative to the working directory.
DEFAULT_CACHE_DIR = ".sweepcache"

#: experiment name -> (module, qualname) of its registered point runner.
_REGISTRY: dict[str, tuple[str, str]] = {}

#: Memoised source-tree digest (one hash pass per process).
_TREE_DIGEST: Optional[str] = None


# ---------------------------------------------------------------------------
# Points and registration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """One independent simulation point of a figure's grid.

    Attributes:
        experiment: registered point-runner name, e.g. ``"fig11"``.
        params: sorted ``(name, value)`` pairs; values must be
            JSON-serialisable scalars so cache keys are canonical.
        seed: the point's RNG seed (part of the identity: the same
            config under a different seed is a different point).
    """

    experiment: str
    params: tuple
    seed: int

    def kwargs(self) -> dict[str, Any]:
        """The params as a keyword dict (seed included)."""
        out = dict(self.params)
        out["seed"] = self.seed
        return out


def point(experiment: str, seed: int = 0, **params: Any) -> SweepPoint:
    """Build a :class:`SweepPoint`, validating parameter canonicality."""
    for name, value in params.items():
        if not isinstance(value, (str, int, float, bool)) and value is not None:
            raise TypeError(
                f"sweep param {name}={value!r} is not a JSON scalar; "
                "map rich objects to strings inside the point runner"
            )
    return SweepPoint(
        experiment=experiment,
        params=tuple(sorted(params.items())),
        seed=seed,
    )


def point_runner(name: str) -> Callable:
    """Register a module-level function as ``name``'s point runner.

    The function must be importable by qualified name (workers import
    it fresh), accept the point's params plus ``seed`` as keyword
    arguments, and return a picklable result.
    """

    def decorate(fn: Callable) -> Callable:
        qualname = getattr(fn, "__qualname__", fn.__name__)
        if "." in qualname or "<locals>" in qualname:
            raise TypeError(
                f"point runner {qualname} must be a module-level function"
            )
        _REGISTRY[name] = (fn.__module__, qualname)
        return fn

    return decorate


def registered_experiments() -> list[str]:
    """Names with a registered point runner (sorted)."""
    return sorted(_REGISTRY)


def _ref(experiment: str) -> tuple:
    """The registered ``(module, qualname)`` for ``experiment``."""
    try:
        return _REGISTRY[experiment]
    except KeyError:
        raise KeyError(
            f"no point runner registered for {experiment!r}; "
            f"known: {registered_experiments()}"
        ) from None


def _resolve(experiment: str) -> Callable:
    """Import and return the registered runner for ``experiment``."""
    import importlib

    module_name, qualname = _ref(experiment)
    return getattr(importlib.import_module(module_name), qualname)


# ---------------------------------------------------------------------------
# Content-addressed cache
# ---------------------------------------------------------------------------


def source_tree_digest() -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` tree.

    Computed once per process.  Any source change -- a cost constant, a
    scheduler tweak -- yields a new digest, so cached results can never
    outlive the code that produced them.
    """
    global _TREE_DIGEST
    if _TREE_DIGEST is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        hasher = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            hasher.update(str(path.relative_to(root)).encode())
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
            hasher.update(b"\0")
        _TREE_DIGEST = hasher.hexdigest()
    return _TREE_DIGEST


def cache_key(pt: SweepPoint) -> str:
    """The point's content-addressed identity."""
    payload = json.dumps(
        {
            "tree": source_tree_digest(),
            "experiment": pt.experiment,
            "params": dict(pt.params),
            "seed": pt.seed,
        },
        sort_keys=True,
    ).encode()
    return hashlib.sha256(payload).hexdigest()


def resolve_cache_dir(cache_dir: "str | Path | None" = None) -> Path:
    """The active cache directory (argument > env var > default)."""
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)
    return Path(cache_dir)


def _entry_path(base: Path, key: str) -> Path:
    return base / key[:2] / f"{key}.pkl"


def cache_load(key: str, base: Path) -> "tuple[bool, Any]":
    """(hit, value) for ``key``; unreadable entries count as misses."""
    path = _entry_path(base, key)
    try:
        with open(path, "rb") as fh:
            entry = pickle.load(fh)
        return True, entry["value"]
    except (OSError, pickle.UnpicklingError, EOFError, KeyError):
        return False, None


def cache_store(key: str, pt: SweepPoint, value: Any, base: Path) -> None:
    """Atomically persist one finished point (concurrent-run safe)."""
    path = _entry_path(base, key)
    path.parent.mkdir(parents=True, exist_ok=True)
    entry = {
        "experiment": pt.experiment,
        "params": dict(pt.params),
        "seed": pt.seed,
        "value": value,
    }
    tmp = path.with_suffix(f".tmp.{os.getpid()}")
    with open(tmp, "wb") as fh:
        pickle.dump(entry, fh, protocol=4)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


@dataclass
class SweepStats:
    """What one :func:`run_points` call did (populated in place)."""

    points: int = 0
    cache_hits: int = 0
    computed: int = 0
    jobs: int = 1
    wall_s: float = 0.0
    #: indexes served from cache (useful in tests/benchmarks).
    hit_indexes: list = field(default_factory=list)


def _execute(pt: SweepPoint) -> Any:
    """Run one point in this process."""
    return _resolve(pt.experiment)(**pt.kwargs())


def _worker(task: tuple) -> tuple:
    """Pool entry point: ``(index, module, qualname, kwargs)``.

    The function reference travels with the task (instead of relying on
    the worker's ``_REGISTRY``) so spawned workers, which start with an
    empty registry, resolve it by import alone.
    """
    import importlib

    index, module_name, qualname, kwargs = task
    fn = getattr(importlib.import_module(module_name), qualname)
    return index, fn(**kwargs)


def _pool_context():
    """Prefer fork (cheap, inherits the registry); fall back to spawn."""
    import multiprocessing

    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_points(
    points: Sequence[SweepPoint],
    jobs: int = 1,
    cache: bool = True,
    cache_dir: "str | Path | None" = None,
    stats: Optional[SweepStats] = None,
) -> list:
    """Evaluate every point; return results in **point order**.

    Args:
        points: the grid.  Order defines the merge order, so callers can
            fold the flat result list back into series deterministically.
        jobs: worker processes; ``<= 1`` runs serially in-process.
            Parallel output is byte-identical to serial output.
        cache: consult/populate the content-addressed result cache.
        cache_dir: cache location override (default: ``$REPRO_SWEEPCACHE_DIR``
            or ``.sweepcache/``).
        stats: optional :class:`SweepStats` populated with hit/miss and
            timing counters.

    Returns:
        ``[result for each point]``, aligned with ``points``.
    """
    import time

    started = time.perf_counter()
    if stats is None:
        stats = SweepStats()
    stats.points = len(points)
    results: list = [None] * len(points)
    misses = list(range(len(points)))

    base = resolve_cache_dir(cache_dir)
    keys: list[Optional[str]] = [None] * len(points)
    if cache:
        misses = []
        for index, pt in enumerate(points):
            key = cache_key(pt)
            keys[index] = key
            hit, value = cache_load(key, base)
            if hit:
                results[index] = value
                stats.cache_hits += 1
                stats.hit_indexes.append(index)
            else:
                misses.append(index)

    effective_jobs = max(1, min(jobs, len(misses)))
    stats.jobs = effective_jobs
    stats.computed = len(misses)
    if misses:
        if effective_jobs == 1:
            for index in misses:
                results[index] = _execute(points[index])
        else:
            context = _pool_context()
            tasks = []
            for index in misses:
                pt = points[index]
                module_name, qualname = _ref(pt.experiment)
                tasks.append((index, module_name, qualname, pt.kwargs()))
            with context.Pool(processes=effective_jobs) as pool:
                # Unordered completion for load balance; the index tag
                # puts each result back in its grid slot, so merge order
                # never depends on scheduling.
                for index, value in pool.imap_unordered(
                    _worker, tasks, chunksize=1
                ):
                    results[index] = value
        if cache:
            for index in misses:
                cache_store(keys[index], points[index], results[index], base)

    stats.wall_s = time.perf_counter() - started
    return results
