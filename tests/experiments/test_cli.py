"""The python -m repro command-line interface."""

import pytest

from repro.__main__ import EXPERIMENTS, main


def test_list_prints_experiments(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for key in EXPERIMENTS:
        assert key in out


def test_run_table1(capsys):
    assert main(["table1"]) == 0
    out = capsys.readouterr().out
    assert "create resource container" in out
    assert "wall]" in out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        main(["nope"])


def test_removed_bench_subcommands_are_rejected(capsys):
    """The end-to-end benchmark is ``perfbench/run.py``; the old bench
    subcommands are gone from the parser and from ``list``."""
    for removed in ("bench", "bench-cluster", "bench-sweep"):
        with pytest.raises(SystemExit) as exc:
            main([removed])
        assert exc.value.code == 2
    capsys.readouterr()
    assert main(["list"]) == 0
    listed = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
    assert not listed & {"bench", "bench-cluster", "bench-sweep"}
    assert "bench-obs" in listed
