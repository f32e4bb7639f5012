"""Short smoke runs of every workload, and one full traced invocation."""

import json

import pytest

import child
import run
import suite

#: Shrunken run shapes: (warm-up s, chunk s, chunks) per workload.
SMOKE_SHAPES = {
    "synflood": (0.1, 0.02, 2),
    "cluster": (0.03, 0.01, 2),
    "disk": (0.05, 0.05, 2),
    "spinner": (0.01, 0.01, 2),
}


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_each_workload_runs_and_counts_ops(name, monkeypatch):
    cls = suite.WORKLOADS[name]
    warmup_s, chunk_s, chunks = SMOKE_SHAPES[name]
    monkeypatch.setattr(cls, "warmup_s", warmup_s)
    monkeypatch.setattr(cls, "chunk_s", chunk_s)
    monkeypatch.setattr(cls, "chunks", chunks)
    record = child.run(name, seed=3, trace=False)
    assert run.output_problems(record["outputs"], None) == []
    assert len(record["chunks"]) == chunks
    assert record["exact"]["sim.events_per_op"] > 1.0
    assert record["layers"] == {}


def test_a_full_traced_invocation_reports_every_per_layer_metric(capsys):
    assert run.main(
        ["--workload", "disk", "--seed", "1", "--seconds", "0", "--trace", "1"]
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 2
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["io.self_us_per_op"]["value"] > 0
    assert result["metrics"]["trace.overhead"]["value"] > 1.0
    summary = json.loads(lines[-2])
    assert summary["checked_against"] == "expected.json"
    assert set(summary["stamp"]) == {"cpu_count", "python", "commit", "platform"}
