"""The sweep engine: grids, parallel determinism, and the result cache."""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.experiments import fig11_priority, sweep

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="parallel determinism tests assume cheap fork workers",
)


# ---------------------------------------------------------------------------
# Points, registration, cache keys
# ---------------------------------------------------------------------------


def test_point_params_are_canonical():
    a = sweep.point("fig11", seed=1, b=2, a=1)
    b = sweep.point("fig11", seed=1, a=1, b=2)
    assert a == b
    assert a.params == (("a", 1), ("b", 2))


def test_point_rejects_non_scalar_params():
    with pytest.raises(TypeError):
        sweep.point("fig11", seed=1, bad=object())


def test_points_are_picklable():
    pt = sweep.point("fig11", seed=11, config="select", n_low=5)
    assert pickle.loads(pickle.dumps(pt)) == pt


def test_unregistered_experiment_raises():
    with pytest.raises(KeyError, match="no point runner"):
        sweep.run_points([sweep.point("does-not-exist", seed=0)], cache=False)


def test_cache_key_depends_on_params_and_seed():
    base = sweep.point("fig11", seed=1, x=1)
    assert sweep.cache_key(base) == sweep.cache_key(sweep.point("fig11", seed=1, x=1))
    assert sweep.cache_key(base) != sweep.cache_key(sweep.point("fig11", seed=2, x=1))
    assert sweep.cache_key(base) != sweep.cache_key(sweep.point("fig11", seed=1, x=2))
    assert sweep.cache_key(base) != sweep.cache_key(sweep.point("fig14", seed=1, x=1))


def test_cache_key_includes_source_tree_digest(monkeypatch):
    before = sweep.cache_key(sweep.point("fig11", seed=1, x=1))
    monkeypatch.setattr(sweep, "_TREE_DIGEST", "different-code")
    after = sweep.cache_key(sweep.point("fig11", seed=1, x=1))
    assert before != after


def test_registered_experiments_cover_all_harnesses():
    # Importing a harness module registers its point runners; the
    # package itself imports no harness, so name each one here.
    from repro.experiments import (  # noqa: F401
        ablations,
        baseline,
        fig12_cgi,
        fig14_synflood,
        virtual_servers,
    )

    names = sweep.registered_experiments()
    for expected in ("fig11", "fig12", "fig14", "baseline", "virtual"):
        assert expected in names
    assert any(name.startswith("ablation.") for name in names)


# ---------------------------------------------------------------------------
# Engine semantics on a cheap synthetic runner
# ---------------------------------------------------------------------------


def _toy_runner(value: int, seed: int = 0) -> int:
    return value * 10 + seed


sweep.point_runner("test.toy")(_toy_runner)


def _toy_grid(n: int = 6) -> list:
    return [sweep.point("test.toy", seed=i % 2, value=i) for i in range(n)]


def test_results_align_with_point_order_serial(tmp_path):
    results = sweep.run_points(_toy_grid(), jobs=1, cache=False)
    assert results == [i * 10 + i % 2 for i in range(6)]


@needs_fork
def test_results_align_with_point_order_parallel():
    results = sweep.run_points(_toy_grid(), jobs=3, cache=False)
    assert results == [i * 10 + i % 2 for i in range(6)]


def test_cache_round_trip_and_stats(tmp_path):
    grid = _toy_grid()
    cold = sweep.SweepStats()
    first = sweep.run_points(grid, cache=True, cache_dir=tmp_path, stats=cold)
    warm = sweep.SweepStats()
    second = sweep.run_points(grid, cache=True, cache_dir=tmp_path, stats=warm)
    assert first == second
    assert cold.cache_hits == 0 and cold.computed == len(grid)
    assert warm.cache_hits == len(grid) and warm.computed == 0
    assert warm.hit_indexes == list(range(len(grid)))


def test_no_cache_bypasses_store(tmp_path):
    sweep.run_points(_toy_grid(), cache=False, cache_dir=tmp_path)
    stats = sweep.SweepStats()
    sweep.run_points(
        _toy_grid(), cache=True, cache_dir=tmp_path, stats=stats
    )
    # The cache=False run must not have populated the directory.
    assert stats.cache_hits == 0


def test_corrupt_cache_entry_is_a_miss(tmp_path):
    grid = _toy_grid(1)
    sweep.run_points(grid, cache=True, cache_dir=tmp_path)
    (entry,) = list(tmp_path.rglob("*.pkl"))
    entry.write_bytes(b"not a pickle")
    stats = sweep.SweepStats()
    results = sweep.run_points(grid, cache=True, cache_dir=tmp_path, stats=stats)
    assert results == [0]
    assert stats.cache_hits == 0 and stats.computed == 1


def test_cache_dir_env_var_is_honoured(tmp_path, monkeypatch):
    monkeypatch.setenv(sweep.CACHE_DIR_ENV, str(tmp_path / "alt"))
    sweep.run_points(_toy_grid(2), cache=True)
    assert list((tmp_path / "alt").rglob("*.pkl"))


# ---------------------------------------------------------------------------
# Determinism on the real fig11 harness (the acceptance criteria)
# ---------------------------------------------------------------------------

#: A cut of Figure 11's fast-mode grid small enough for the test suite:
#: all three configurations, two load points, fast-mode windows.
FIG11_TEST_POINTS = [0, 2]


@needs_fork
def test_fig11_parallel_output_is_bit_identical_to_serial():
    serial = fig11_priority.run(
        fast=True, points=FIG11_TEST_POINTS, jobs=1, cache=False
    )
    parallel = fig11_priority.run(
        fast=True, points=FIG11_TEST_POINTS, jobs=4, cache=False
    )
    # Bit-identical: every float equal, and the rendered table equal bytes.
    assert [s.points for s in parallel.series] == [s.points for s in serial.series]
    assert parallel.render().encode() == serial.render().encode()


@needs_fork
def test_fig11_warm_cache_rerun_is_identical_and_all_hits(tmp_path, monkeypatch):
    monkeypatch.setenv(sweep.CACHE_DIR_ENV, str(tmp_path / "cache"))
    cold = fig11_priority.run(
        fast=True, points=FIG11_TEST_POINTS, jobs=4, cache=True
    )
    grid = fig11_priority.grid(fast=True, points=FIG11_TEST_POINTS)
    stats = sweep.SweepStats()
    warm_values = sweep.run_points(grid, jobs=1, cache=True, stats=stats)
    assert stats.cache_hits == len(grid) and stats.computed == 0
    warm = fig11_priority.run(
        fast=True, points=FIG11_TEST_POINTS, jobs=1, cache=True
    )
    assert warm.render() == cold.render()
    assert [s.points for s in warm.series] == [s.points for s in cold.series]
    assert warm_values == [y for s in cold.series for (_x, y) in s.points]
