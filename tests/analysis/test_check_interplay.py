"""Pragma / allowlist / baseline interplay across every rule family of
the one gate: pragma wins over baseline, the reasoned baseline
grandfathers DET and CHG findings alike, stale or unreasoned entries
fail the gate, and unwaivable rules stay refused through every
mechanism."""

from __future__ import annotations

import json

import pytest

from repro.analysis import lint
from repro.analysis.analyze import (
    analyze_graph,
    run_check,
    unwaivable_rules,
)
from repro.analysis.graph import ModuleGraph

# ---------------------------------------------------------------------------
# Pragmas across every family
# ---------------------------------------------------------------------------


def test_generalized_pragma_suppresses_lint_rules():
    # The new `# analysis: allow[...]` spelling works for DET rules too.
    source = (
        "import time\n\ndef f():\n"
        "    return time.time()  # analysis: allow[DET101]\n"
    )
    assert lint.lint_source(source, "m.py") == []


def test_det_pragma_suppresses_analyzer_rules():
    # And the legacy `# det: allow[...]` spelling reaches analyzer rules.
    graph = ModuleGraph.from_sources(
        {
            "apps/t.py": (
                "def f(state):\n"
                "    state.pass_value = 1.0  # det: allow[SMP303]\n"
            )
        }
    )
    assert analyze_graph(graph) == []


def test_pragma_only_covers_its_own_line_and_rule():
    graph = ModuleGraph.from_sources(
        {
            "apps/t.py": (
                "def f(state):\n"
                "    state.pass_value = 1.0  # analysis: allow[UNIT401]\n"
                "    state._group_vtime = 2.0\n"
            )
        }
    )
    rules = [v.rule for v in analyze_graph(graph)]
    assert rules == ["SMP303", "SMP303"]  # wrong rule id waives nothing


def test_file_allowlist_waives_exactly_the_named_rule():
    graph = ModuleGraph.from_sources(
        {
            "apps/t.py": (
                "def f(state, size_bytes):\n"
                "    state.pass_value = 1.0\n"
                "    total_us = size_bytes\n"
            )
        }
    )
    violations = analyze_graph(
        graph, allowlist={"apps/t.py": {"SMP303": "test reason"}}
    )
    assert [v.rule for v in violations] == ["UNIT402"]


# ---------------------------------------------------------------------------
# Pragma wins over baseline (the fingerprint never reaches reconcile)
# ---------------------------------------------------------------------------


def _write_tree(tmp_path, sources):
    root = tmp_path / "tree"
    for rel, text in sources.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return root


def test_pragma_beats_baseline_and_strands_the_entry(tmp_path, capsys):
    root = _write_tree(
        tmp_path,
        {
            "apps/t.py": (
                "def f(state):\n"
                "    state.pass_value = 1.0  # analysis: allow[SMP303]\n"
            )
        },
    )
    baseline = tmp_path / "b.json"
    baseline.write_text(
        json.dumps(
            [
                {
                    "path": "apps/t.py",
                    "rule": "SMP303",
                    "code": "state.pass_value = 1.0  "
                    "# analysis: allow[SMP303]",
                    "reason": "grandfathered before the pragma landed",
                }
            ]
        )
    )
    # The pragma suppresses the violation before baseline matching, so
    # the baseline entry is now stale -- and stale entries fail the run
    # until retired.
    rc = run_check(root=root, baseline_path=baseline)
    out = capsys.readouterr().out
    assert rc == 1
    assert "stale baseline entry" in out
    # Retiring it with --update-baseline clears the failure.
    assert (
        run_check(
            update_baseline=True, root=root, baseline_path=baseline
        )
        == 0
    )
    assert json.loads(baseline.read_text()) == []
    assert run_check(root=root, baseline_path=baseline) == 0


# ---------------------------------------------------------------------------
# One reasoned baseline for every family
# ---------------------------------------------------------------------------

#: One waivable finding per fixture family: (path, source, fixed source).
GRANDFATHERABLE = {
    "DET101": (
        "apps/clock.py",
        "import time\n\ndef f():\n    return time.time()\n",
        "def f(sim):\n    return sim.now\n",
    ),
    "CHG201": (
        "kernel/descriptors.py",
        "class DescriptorTable:\n"
        "    def allocate(self, kind, obj):\n"
        "        self.slots.append(obj)\n",
        "class DescriptorTable:\n"
        "    def allocate(self, kind, obj):\n"
        "        obj.container.usage.charge(1)\n"
        "        self.slots.append(obj)\n",
    ),
}


def _check_json(capsys, **kwargs) -> tuple:
    rc = run_check(fmt="json", **kwargs)
    return rc, json.loads(capsys.readouterr().out)


def _baselined_tree(tmp_path, capsys, rule, reason="fixture: kept"):
    """A one-finding tree plus a baseline that --update-baseline wrote
    and that was then given ``reason``: (root, baseline path)."""
    rel, source, _fixed = GRANDFATHERABLE[rule]
    root = _write_tree(tmp_path, {rel: source})
    baseline = tmp_path / "b.json"
    run_check(update_baseline=True, root=root, baseline_path=baseline)
    capsys.readouterr()
    entries = json.loads(baseline.read_text())
    assert [e["rule"] for e in entries] == [rule]
    for entry in entries:
        entry["reason"] = reason
    baseline.write_text(json.dumps(entries))
    return root, baseline


@pytest.mark.parametrize("rule", sorted(GRANDFATHERABLE))
def test_reasoned_baseline_grandfathers_across_line_shifts(
    tmp_path, capsys, rule
):
    root, baseline = _baselined_tree(tmp_path, capsys, rule)
    # A missing baseline file is an empty one: the finding is new.
    rc, payload = _check_json(
        capsys, root=root, baseline_path=tmp_path / "none.json"
    )
    assert rc == 1 and [v["rule"] for v in payload["new"]] == [rule]
    # Unrelated edits above the finding must not churn the baseline.
    rel, source, _fixed = GRANDFATHERABLE[rule]
    (root / rel).write_text("PADDING = 1\n\n\n" + source, encoding="utf-8")
    rc, payload = _check_json(capsys, root=root, baseline_path=baseline)
    assert rc == 0 and payload["new"] == []
    assert [v["rule"] for v in payload["grandfathered"]] == [rule]
    assert payload["grandfathered"][0]["line"] > 3


@pytest.mark.parametrize("rule", sorted(GRANDFATHERABLE))
def test_stale_baseline_entry_fails_the_gate(tmp_path, capsys, rule):
    root, baseline = _baselined_tree(tmp_path, capsys, rule)
    rel, _source, fixed = GRANDFATHERABLE[rule]
    (root / rel).write_text(fixed, encoding="utf-8")
    rc, payload = _check_json(capsys, root=root, baseline_path=baseline)
    assert rc == 1 and payload["new"] == []
    assert [e["rule"] for e in payload["stale_baseline"]] == [rule]
    # Retiring the entry clears the failure.
    assert (
        run_check(update_baseline=True, root=root, baseline_path=baseline)
        == 0
    )
    assert json.loads(baseline.read_text()) == []


@pytest.mark.parametrize("rule", sorted(GRANDFATHERABLE))
def test_unreasoned_baseline_entry_absorbs_nothing(tmp_path, capsys, rule):
    root, baseline = _baselined_tree(tmp_path, capsys, rule, reason="  ")
    rc, payload = _check_json(capsys, root=root, baseline_path=baseline)
    assert rc == 1 and payload["grandfathered"] == []
    assert [v["rule"] for v in payload["new"]] == [rule]
    assert [e["rule"] for e in payload["unjustified_baseline"]] == [rule]


# ---------------------------------------------------------------------------
# Unwaivable rules stay refused everywhere
# ---------------------------------------------------------------------------


def test_obs_wall_clock_unwaivable_through_every_spelling():
    source = (
        "import time\n\ndef f():\n"
        "    return time.time()  # analysis: allow[DET101]\n"
    )
    violations = lint.lint_source(
        source, "obs/export.py", allowed=("DET101",)
    )
    assert [v.rule for v in violations] == ["DET101"]
    # One map holds every family's carve-out: both nondeterminism
    # sources are absolute under obs/ and cluster/, at any depth, next
    # to the charging and units families; other DET rules stay waivable.
    for rel in ("obs/spans.py", "obs/deep/nested.py", "cluster/fabric.py"):
        assert unwaivable_rules(rel) == {
            "DET101", "DET102", "CHG201", "CHG202",
            "UNIT401", "UNIT402", "UNIT403",
        }


def test_cpu_charging_rules_unwaivable_in_analyze():
    assert unwaivable_rules("kernel/cpu.py") == {"CHG201", "CHG202"}
    assert unwaivable_rules("io/device.py") == {"CHG201", "CHG202"}
    assert unwaivable_rules("net/tcp.py") == frozenset()
    # A pragma on the consuming primitive in kernel/cpu.py is ignored.
    graph = ModuleGraph.from_sources(
        {
            "kernel/cpu.py": (
                "class CPU:\n"
                "    def _account(self, amount_us):  "
                "# analysis: allow[CHG201]\n"
                "        self.busy_us += amount_us\n"
            )
        }
    )
    assert [v.rule for v in analyze_graph(graph)] == ["CHG201"]


def test_analyze_baseline_cannot_absorb_unwaivable(tmp_path, capsys):
    root = _write_tree(
        tmp_path,
        {
            "kernel/cpu.py": (
                "class CPU:\n"
                "    def _account(self, amount_us):\n"
                "        self.busy_us += amount_us\n"
            ),
            "obs/clock.py": (
                "import time\n\ndef f():\n    return time.time()\n"
            ),
        },
    )
    baseline = tmp_path / "b.json"
    violations = analyze_graph(ModuleGraph.load(root))
    assert sorted(v.rule for v in violations) == ["CHG201", "DET101"]
    baseline.write_text(
        json.dumps(
            [
                {
                    "path": violation.path,
                    "rule": violation.rule,
                    "code": violation.code,
                    "reason": "hand-edited attempt to grandfather",
                }
                for violation in violations
            ]
        )
    )
    rc, payload = _check_json(capsys, root=root, baseline_path=baseline)
    assert rc == 1 and payload["grandfathered"] == []
    assert sorted(v["rule"] for v in payload["new"]) == ["CHG201", "DET101"]
    # --update-baseline refuses to write it, too.
    rc = run_check(
        update_baseline=True, root=root, baseline_path=baseline
    )
    out = capsys.readouterr().out
    assert rc == 1
    assert "refused to grandfather" in out
    assert json.loads(baseline.read_text()) == []


# ---------------------------------------------------------------------------
# The committed analyzer baseline stays honest
# ---------------------------------------------------------------------------


def test_committed_analyze_baseline_entries_are_justified():
    from repro.analysis.analyze import ANALYZE_BASELINE_PATH
    from repro.analysis.graph import load_baseline_entries

    for entry in load_baseline_entries(ANALYZE_BASELINE_PATH):
        assert str(entry.get("reason", "")).strip(), (
            f"baseline entry for {entry.get('path')} needs a written "
            "justification"
        )
        assert entry["rule"] not in unwaivable_rules(entry["path"])
