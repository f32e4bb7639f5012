"""The whole-program analyzer: seeded defect fixtures for each rule
family, clean-pattern fixtures, driver exit codes, and the clean-tree
gate (`python -m repro check` must exit 0 on HEAD)."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.analysis.analyze import (
    ANALYZE_BASELINE_PATH,
    analyze_graph,
    run_check,
    unwaivable_rules,
)
from repro.analysis.charging import (
    PRIMITIVES,
    ConsumingPrimitive,
    check_charging,
)
from repro.analysis.graph import (
    ModuleGraph,
    load_baseline_entries,
    reconcile_baseline,
)
from repro.analysis.rules import RULES
from repro.analysis.smp_rules import check_smp
from repro.analysis.units import check_units

# ---------------------------------------------------------------------------
# CHG2xx: charging completeness
# ---------------------------------------------------------------------------


def _charging(sources, qualname="Device.consume", rel="dev.py"):
    graph = ModuleGraph.from_sources(sources)
    primitive = ConsumingPrimitive(
        rel=rel,
        qualname=qualname,
        dimension="disk",
        description="fixture consumption",
    )
    return check_charging(graph, primitives=(primitive,))


def test_chg201_no_sink_reachable_anywhere():
    violations = _charging(
        {
            "dev.py": (
                "class Device:\n"
                "    def consume(self, amount_us):\n"
                "        self.busy_us += amount_us\n"
                "        self.log(amount_us)\n"
                "    def log(self, amount_us):\n"
                "        print(amount_us)\n"
            )
        }
    )
    assert [v.rule for v in violations] == ["CHG201"]


def test_chg201_clean_when_charge_is_reached_through_another_module():
    violations = _charging(
        {
            "dev.py": (
                "class Device:\n"
                "    def consume(self, amount_us):\n"
                "        self.busy_us += amount_us\n"
                "        book(self, amount_us)\n"
            ),
            "ledger.py": (
                "def book(device, amount_us):\n"
                "    device.container.usage.charge_disk(amount_us, 0)\n"
            ),
        }
    )
    assert [v.rule for v in violations] == ["CHG202"] or violations == [], (
        "reachability must be satisfied via ledger.py"
    )
    # The CHG202 (body-local) finding is expected: consume() itself
    # has no direct sink on its fall-through path -- but CHG201 must
    # NOT fire, because the charge *is* reachable.
    assert all(v.rule != "CHG201" for v in violations)


def test_chg202_branch_escapes_without_charging():
    violations = _charging(
        {
            "dev.py": (
                "class Device:\n"
                "    def consume(self, req):\n"
                "        self.busy_us += req.service_us\n"
                "        if req.container is not None:\n"
                "            req.container.usage.charge_disk(req.service_us, 0)\n"
                "            return True\n"
                "        return True\n"  # anonymous path: leaks
            )
        }
    )
    assert [v.rule for v in violations] == ["CHG202"]
    assert violations[0].line == 7


def test_chg202_fall_off_the_end_uncharged():
    violations = _charging(
        {
            "dev.py": (
                "class Device:\n"
                "    def consume(self, req):\n"
                "        self.busy_us += req.service_us\n"
                "        self.notify(req)\n"
                "    def notify(self, req):\n"
                "        req.done = True\n"
                "        self.charge(req)\n"
                "    def charge(self, req):\n"
                "        req.container.usage.charge_disk(req.service_us, 0)\n"
            )
        }
    )
    # Reachable (no CHG201), but the primitive's own body never sinks.
    assert [v.rule for v in violations] == ["CHG202"]


def test_chg202_clean_if_else_both_book():
    violations = _charging(
        {
            "dev.py": (
                "class Device:\n"
                "    def consume(self, req):\n"
                "        if req.container is not None:\n"
                "            req.container.usage.charge_disk(req.service_us, 0)\n"
                "        else:\n"
                "            self.unaccounted_us += req.service_us\n"
            )
        }
    )
    assert violations == []


def test_chg202_rejection_paths_are_exempt():
    violations = _charging(
        {
            "dev.py": (
                "class Device:\n"
                "    def consume(self, req):\n"
                "        if req.size_bytes < 0:\n"
                "            raise ValueError('bad')\n"
                "        if req.size_bytes > self.capacity_bytes:\n"
                "            return False\n"
                "        if req.denied:\n"
                "            return None\n"
                "        self.unaccounted_us += req.service_us\n"
            )
        }
    )
    assert violations == []


def test_chg202_sink_inside_condition_counts():
    violations = _charging(
        {
            "dev.py": (
                "class Device:\n"
                "    def consume(self, req):\n"
                "        if not self.accountant.try_charge(req.owner, req.size_bytes):\n"
                "            return False\n"
                "        self.resident += 1\n"
                "        return True\n"
            )
        }
    )
    assert violations == []


def test_chg202_charge_inside_ancestor_loop_counts():
    violations = _charging(
        {
            "dev.py": (
                "class Device:\n"
                "    def consume(self, container, size_bytes):\n"
                "        for node in ancestors_and_self(container):\n"
                "            node.usage.charge_memory(size_bytes)\n"
                "        return True\n"
            )
        }
    )
    assert violations == []


def test_chg201_flags_a_registry_entry_the_tree_lost():
    graph = ModuleGraph.from_sources({"dev.py": "X = 1\n"})
    primitive = ConsumingPrimitive(
        rel="dev.py",
        qualname="Device.consume",
        dimension="disk",
        description="gone",
    )
    violations = check_charging(graph, primitives=(primitive,))
    assert [v.rule for v in violations] == ["CHG201"]
    assert "not found" in violations[0].message


# ---------------------------------------------------------------------------
# SMP3xx: shard protocol
# ---------------------------------------------------------------------------


def _smp(sources):
    return check_smp(ModuleGraph.from_sources(sources))


def test_smp301_discarded_pick_result():
    violations = _smp(
        {
            "kernel/dispatch.py": (
                "def kick(scheduler, now):\n"
                "    scheduler.pick_for_cpu(now, 0)\n"
            )
        }
    )
    assert "SMP301" in [v.rule for v in violations]


def test_smp302_pick_without_reachable_hand_back():
    violations = _smp(
        {
            "kernel/dispatch.py": (
                "def steal(scheduler, now):\n"
                "    entity = scheduler.pick_for_cpu(now, 1)\n"
                "    return entity\n"
            )
        }
    )
    assert [v.rule for v in violations] == ["SMP302"]


def test_smp302_clean_when_hand_back_is_reachable():
    violations = _smp(
        {
            "kernel/dispatch.py": (
                "def dispatch(scheduler, now):\n"
                "    entity = scheduler.pick_for_cpu(now, 0)\n"
                "    if entity is None:\n"
                "        return None\n"
                "    finish(scheduler, entity, now)\n"
                "    return entity\n"
                "\n"
                "def finish(scheduler, entity, now):\n"
                "    scheduler.on_slice_end(entity, 0, now)\n"
            )
        }
    )
    assert violations == []


def test_smp302_hand_back_in_another_module_does_not_count():
    violations = _smp(
        {
            "kernel/dispatch.py": (
                "def dispatch(scheduler, now):\n"
                "    entity = scheduler.pick_for_cpu(now, 0)\n"
                "    helper(scheduler, entity)\n"
                "    return entity\n"
            ),
            "other.py": (
                "def helper(scheduler, entity):\n"
                "    scheduler.on_slice_end(entity, 0, 0.0)\n"
            ),
        }
    )
    assert [v.rule for v in violations] == ["SMP302"]


def test_smp303_global_state_write_outside_mediation_points():
    violations = _smp(
        {
            "apps/tuner.py": (
                "def boost(state):\n"
                "    state.pass_value = 0.0\n"
                "    state._group_vtime += 1.0\n"
            )
        }
    )
    assert [v.rule for v in violations] == ["SMP303", "SMP303"]


def test_smp303_clean_at_the_mediation_points():
    for rel in ("sched/container_sched.py", "core/container.py",
                "io/scheduler.py"):
        violations = _smp(
            {rel: "def charge(state):\n    state.pass_value += 1.0\n"}
        )
        assert violations == [], rel


def test_smp304_shard_internals_touched_outside_sched():
    violations = _smp(
        {
            "obs/probe.py": (
                "def peek(scheduler):\n"
                "    return scheduler._shards[0].layer_heaps\n"
            )
        }
    )
    assert sorted(v.rule for v in violations) == ["SMP304", "SMP304"]


def test_smp304_clean_inside_sched():
    violations = _smp(
        {
            "sched/container_sched.py": (
                "def rebuild(self):\n"
                "    self._shards[0].layer_heaps.clear()\n"
            )
        }
    )
    assert violations == []


# ---------------------------------------------------------------------------
# UNIT4xx: dimensional analysis
# ---------------------------------------------------------------------------


def _units(source, rel="m.py"):
    return check_units(ModuleGraph.from_sources({rel: source}))


def test_unit401_mixed_addition():
    violations = _units(
        "def f(elapsed_us, size_bytes):\n"
        "    return elapsed_us + size_bytes\n"
    )
    assert [v.rule for v in violations] == ["UNIT401"]


def test_unit401_mixed_augmented_assignment():
    violations = _units(
        "def f(ledger, size_bytes):\n"
        "    ledger.cpu_us += size_bytes\n"
    )
    assert [v.rule for v in violations] == ["UNIT401"]


def test_unit402_unit_dropping_assignment():
    violations = _units(
        "def f(size_bytes):\n    total_us = size_bytes\n    return total_us\n"
    )
    assert [v.rule for v in violations] == ["UNIT402"]


def test_unit403_mixed_comparison():
    violations = _units(
        "def f(timeout_ms, deadline_us):\n"
        "    return timeout_ms < deadline_us\n"
    )
    assert [v.rule for v in violations] == ["UNIT403"]


def test_units_single_binding_local_inherits_dimension():
    violations = _units(
        "def f(start_us, size_bytes):\n"
        "    begin = start_us\n"
        "    return begin + size_bytes\n"
    )
    assert [v.rule for v in violations] == ["UNIT401"]


@pytest.mark.parametrize(
    "source",
    [
        # Same dimension: fine.
        "def f(a_us, b_us):\n    return a_us + b_us\n",
        # Constants are wildcards.
        "def f(a_us):\n    return a_us + 5.0\n",
        "def f(a_us):\n    return a_us > 0\n",
        # Multiplication/division launder dimensions (conversions).
        "def f(per_kb_us, size_bytes):\n"
        "    return per_kb_us * (size_bytes / 1024.0)\n",
        "def f(size_kb):\n    size_bytes = size_kb * 1024\n"
        "    return size_bytes\n",
        # _per_ names are rates, not their suffix dimension.
        "def f(cost_per_kb_us, budget_us):\n"
        "    return cost_per_kb_us + budget_us\n",
        # min/max pass through a single consistent dimension.
        "def f(a_us, b_us, size_bytes):\n"
        "    return min(a_us, b_us) + max(a_us, 0.0)\n",
        # Reassigned locals are not inferred.
        "def f(a_us, size_bytes):\n"
        "    x = a_us\n    x = size_bytes\n    return x + size_bytes\n",
    ],
)
def test_units_clean_patterns(source):
    assert _units(source) == []


def test_units_annotation_declares_a_dimension():
    violations = _units(
        "# analysis: unit[budget=us]\n"
        "def f(budget, size_bytes):\n"
        "    return budget + size_bytes\n"
    )
    assert [v.rule for v in violations] == ["UNIT401"]


def test_units_annotation_clears_a_suffix_dimension():
    assert (
        _units(
            "# analysis: unit[blob_us=none]\n"
            "def f(blob_us, size_bytes):\n"
            "    return blob_us + size_bytes\n"
        )
        == []
    )


# ---------------------------------------------------------------------------
# Catalogue coverage (mirror of the lint's meta-test)
# ---------------------------------------------------------------------------


def test_every_analyzer_rule_has_a_trigger_fixture_here():
    analyzer_rules = {r for r in RULES if not r.startswith("DET")}
    assert analyzer_rules == {
        "CHG201",
        "CHG202",
        "SMP301",
        "SMP302",
        "SMP303",
        "SMP304",
        "UNIT401",
        "UNIT402",
        "UNIT403",
    }


def test_acceptance_matrix_detects_each_seeded_defect_class():
    """The ISSUE's acceptance floor: >=2 uncharged-consumption variants,
    >=2 shard-protocol violations, >=2 unit-mixing bugs, one graph."""
    graph = ModuleGraph.from_sources(
        {
            "dev.py": (
                "class Device:\n"
                "    def consume(self, req):\n"  # CHG201: no sink anywhere
                "        self.busy_us += req.service_us\n"
            ),
            "mem.py": (
                "class Pool:\n"
                "    def admit(self, owner, size_bytes):\n"
                "        if owner is not None:\n"
                "            owner.usage.charge_memory(size_bytes)\n"
                "            return True\n"
                "        return True\n"  # CHG202: anonymous path leaks
            ),
            "kernel/loop.py": (
                "def kick(scheduler, now):\n"
                "    scheduler.pick_for_cpu(now, 0)\n"  # SMP301 (+302)
            ),
            "apps/meddler.py": (
                "def meddle(state, size_bytes, deadline_us):\n"
                "    state.pass_value = 0.0\n"  # SMP303
                "    total_us = size_bytes\n"  # UNIT402
                "    return deadline_us < size_bytes\n"  # UNIT403
            ),
        }
    )
    primitives = (
        ConsumingPrimitive("dev.py", "Device.consume", "disk", "f"),
        ConsumingPrimitive("mem.py", "Pool.admit", "memory", "f"),
    )
    rules = [v.rule for v in check_charging(graph, primitives=primitives)]
    rules += [v.rule for v in check_smp(graph)]
    rules += [v.rule for v in check_units(graph)]
    assert len([r for r in rules if r.startswith("CHG")]) >= 2
    assert len([r for r in rules if r.startswith("SMP")]) >= 2
    assert len([r for r in rules if r.startswith("UNIT")]) >= 2


# ---------------------------------------------------------------------------
# Driver: exit codes, JSON format, clean-tree gates
# ---------------------------------------------------------------------------

_DIRTY_TREE = {
    "apps/bad.py": (
        "def f(state, size_bytes):\n"
        "    state.pass_value = 1.0\n"
        "    total_us = size_bytes\n"
    ),
    "apps/clock.py": "import time\n\ndef f():\n    return time.time()\n",
}


def _materialize(tmp_path, sources) -> Path:
    root = tmp_path / "tree"
    for rel, source in sources.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


def _repro(*argv) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def test_run_analyze_exit_one_on_violations(tmp_path, capsys):
    root = _materialize(tmp_path, _DIRTY_TREE)
    rc = run_check(root=root, baseline_path=tmp_path / "b.json")
    assert rc == 1
    out = capsys.readouterr().out
    assert "DET101" in out and "SMP303" in out and "UNIT402" in out


def test_run_analyze_json_format(tmp_path, capsys):
    root = _materialize(tmp_path, _DIRTY_TREE)
    rc = run_check(
        root=root, baseline_path=tmp_path / "b.json", fmt="json"
    )
    assert rc == 1
    # The report is the whole of stdout, DET findings included.
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    rules = {v["rule"] for v in payload["new"]}
    assert {"DET101", "SMP303", "UNIT402"} <= rules


def test_update_baseline_requires_reasons_then_absorbs(tmp_path, capsys):
    root = _materialize(tmp_path, _DIRTY_TREE)
    baseline = tmp_path / "b.json"
    # First pass: entries are written but unreasoned -> still failing.
    rc = run_check(
        update_baseline=True, root=root, baseline_path=baseline
    )
    assert rc == 1
    assert 'need a written' in capsys.readouterr().out
    entries = json.loads(baseline.read_text())
    assert entries and all(e["reason"] == "" for e in entries)
    # An unreasoned baseline absorbs nothing.
    assert run_check(root=root, baseline_path=baseline) == 1
    # Write reasons; now the baseline absorbs and the tree passes.
    for entry in entries:
        entry["reason"] = "fixture: deliberately grandfathered"
    baseline.write_text(json.dumps(entries))
    assert run_check(root=root, baseline_path=baseline) == 0
    # Re-updating preserves the reasons.
    rc = run_check(
        update_baseline=True, root=root, baseline_path=baseline
    )
    assert rc == 0
    kept = json.loads(baseline.read_text())
    assert all(
        e["reason"] == "fixture: deliberately grandfathered" for e in kept
    )


def test_head_tree_is_clean_in_process():
    """On HEAD the gate's only finding is the one reasoned CHG201 entry."""
    new, grandfathered, stale, unjustified = reconcile_baseline(
        analyze_graph(ModuleGraph.load()),
        load_baseline_entries(ANALYZE_BASELINE_PATH),
        unwaivable_rules,
    )
    assert new == [] and stale == [] and unjustified == []
    assert [(v.path, v.rule) for v in grandfathered] == [
        ("kernel/descriptors.py", "CHG201")
    ]


def test_head_tree_check_combines_lint_and_analyze():
    assert run_check() == 0


def test_cli_analyze_exits_zero_on_head():
    """`python -m repro check` is the CI entry point; its JSON report is
    the whole of stdout."""
    proc = _repro("check", "--format", "json")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True
    assert payload["new"] == []


def test_cli_rules_lists_the_analyzer_catalogue():
    proc = _repro("check", "--rules")
    assert proc.returncode == 0
    for rule_id in ("DET101", "CHG201", "SMP302", "UNIT401"):
        assert rule_id in proc.stdout
    assert all(f"{rule_id} (" in proc.stdout for rule_id in RULES)


def test_retired_subcommands_are_rejected():
    for retired in ("lint", "analyze"):
        with pytest.raises(SystemExit) as exc:
            main([retired])
        assert exc.value.code == 2


def test_primitive_registry_matches_the_real_tree():
    graph = ModuleGraph.load()
    for primitive in PRIMITIVES:
        assert graph.function(primitive.rel, primitive.qualname) is not None, (
            f"PRIMITIVES is stale: {primitive.rel}:{primitive.qualname}"
        )
