"""The output check: recorded outputs, twin runs and failed-run counting."""

import copy
import json
from pathlib import Path

import run

BENCH = Path(run.__file__).resolve().parent


def _record(outputs):
    return {
        "window_start": 0.0,
        "chunk_s": 0.1,
        "chunks": [[0.5, 10], [0.4, 12]],
        "outputs": outputs,
        "exact": {},
        "layers": {},
        "peak_rss_mb": 30.0,
        "queue": "TimingWheelQueue",
        "unwrapped": [],
        "setup_s": 1.0,
    }


def test_every_workload_has_recorded_outputs():
    expected = run.load_expected()
    assert set(expected) == set(run.WORKLOADS)
    for by_seed in expected.values():
        assert by_seed
        for outputs in by_seed.values():
            assert run.output_problems(outputs, outputs) == []


def test_output_check_rejects_a_tampered_recorded_value():
    expected = run.load_expected()
    for by_seed in expected.values():
        outputs = next(iter(by_seed.values()))
        for key in ("figure", "ops", "events"):
            tampered = copy.deepcopy(outputs)
            tampered[key] = tampered[key] + 1
            assert run.output_problems(outputs, tampered), key


def test_output_check_rejects_implausible_results():
    good = {"figure": 2.0, "ops": 10, "events": 100}
    assert run.output_problems(good, None) == []
    assert run.output_problems({**good, "ops": 0}, None)
    assert run.output_problems({**good, "events": 5}, None)
    assert run.output_problems({**good, "figure": float("nan")}, None)
    assert run.output_problems({**good, "figure": 0.0}, None)


def test_a_run_that_disagrees_with_the_recording_counts_as_failed(monkeypatch):
    workload, by_seed = next(iter(run.load_expected().items()))
    seed, outputs = next(iter(by_seed.items()))
    tampered = {**outputs, "events": outputs["events"] + 1}
    monkeypatch.setattr(run, "run_child", lambda *_a: _record(dict(tampered)))
    bench = run.Bench(workload, int(seed), seconds=0.0)
    assert bench.recorded
    assert bench.attempt(trace=False) is not None
    assert (bench.attempted, bench.failed) == (1, 1)


def test_an_unrecorded_seed_is_checked_against_its_first_run(monkeypatch):
    outputs = [
        {"figure": 2.0, "ops": 10, "events": 100},
        {"figure": 2.0, "ops": 10, "events": 100},
        {"figure": 2.5, "ops": 10, "events": 100},
    ]
    monkeypatch.setattr(run, "run_child", lambda *_a: _record(outputs.pop(0)))
    bench = run.Bench("disk", 987_654_321, seconds=0.0)
    assert not bench.recorded
    for _ in range(3):
        bench.attempt(trace=False)
    assert (bench.attempted, bench.failed) == (3, 1)
    assert "differ" in bench.problems[0]


def test_a_traced_run_must_reproduce_its_untraced_twin(monkeypatch):
    twin = _record({"figure": 2.0, "ops": 10, "events": 100})
    traced = _record({"figure": 2.0, "ops": 10, "events": 101})
    monkeypatch.setattr(run, "run_child", lambda *_a: traced)
    bench = run.Bench("disk", 987_654_321, seconds=0.0)
    bench.attempt(trace=True, twin=twin)
    assert bench.failed == 1


def test_a_crashing_run_counts_as_failed(monkeypatch):
    def crash(*_a):
        raise run.RunFailed("Traceback: boom")

    monkeypatch.setattr(run, "run_child", crash)
    bench = run.Bench("disk", 1, seconds=0.0)
    assert bench.attempt(trace=False) is None
    assert bench.failed == 1 and "boom" in bench.problems[0]


def test_summaries_of_one_and_many_samples():
    assert run.summarize([3.0]) == {"q1": 3.0, "median": 3.0, "q3": 3.0, "n": 1}
    stats = run.summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert stats["q1"] < stats["median"] == 3.0 < stats["q3"] and stats["n"] == 5


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert all(units[n] == u for n, (u, _stat) in run.END_TO_END.items())
    assert all(
        units[n] == run.per_layer_unit(n)
        for n in units if n not in run.END_TO_END
    )
