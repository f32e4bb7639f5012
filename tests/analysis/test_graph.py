"""The shared module graph: parsing, pragmas, call resolution, and the
reasoned-baseline reconcile that every analysis pass runs off."""

from __future__ import annotations

from repro.analysis.graph import (
    ModuleGraph,
    ModuleInfo,
    Violation,
    collect_pragmas,
    collect_unit_overrides,
    reconcile_baseline,
)

# ---------------------------------------------------------------------------
# Pragmas and annotations
# ---------------------------------------------------------------------------


def test_pragma_accepts_both_spellings_and_comma_lists():
    pragmas = collect_pragmas(
        [
            "x = 1  # det: allow[DET101]",
            "y = 2  # analysis: allow[CHG201]",
            "z = 3  # analysis: allow[SMP302, UNIT401]",
            "plain = 4",
        ]
    )
    assert pragmas == {
        1: {"DET101"},
        2: {"CHG201"},
        3: {"SMP302", "UNIT401"},
    }


def test_unit_overrides_declare_and_clear_dimensions():
    overrides = collect_unit_overrides(
        [
            "# analysis: unit[budget=us]",
            "# analysis: unit[ratio_us=none]",
        ]
    )
    assert overrides == {"budget": "us", "ratio_us": None}


# ---------------------------------------------------------------------------
# Function collection and call resolution
# ---------------------------------------------------------------------------

_RESOLUTION_SOURCES = {
    "a.py": (
        "class Worker:\n"
        "    def run(self):\n"
        "        self.step()\n"
        "        helper()\n"
        "    def step(self):\n"
        "        shared()\n"
        "\n"
        "def helper():\n"
        "    pass\n"
    ),
    "b.py": ("def shared():\n    pass\n"),
}


def test_function_collection_and_qualnames():
    graph = ModuleGraph.from_sources(_RESOLUTION_SOURCES)
    module = graph.modules["a.py"]
    assert set(module.functions) == {"Worker.run", "Worker.step", "helper"}
    run = module.functions["Worker.run"]
    assert run.cls == "Worker"
    assert run.call_names == frozenset({"step", "helper"})


def test_resolution_prefers_own_class_then_module_then_global():
    graph = ModuleGraph.from_sources(_RESOLUTION_SOURCES)
    run = graph.function("a.py", "Worker.run")
    (step,) = graph.resolve(run, "step")
    assert step.qualname == "Worker.step"
    (helper,) = graph.resolve(run, "helper")
    assert helper.qualname == "helper"
    step_fn = graph.function("a.py", "Worker.step")
    (shared,) = graph.resolve(step_fn, "shared")
    assert shared.rel == "b.py"


def test_same_module_only_resolution_stops_at_the_module_edge():
    graph = ModuleGraph.from_sources(_RESOLUTION_SOURCES)
    step = graph.function("a.py", "Worker.step")
    assert graph.resolve(step, "shared", same_module_only=True) == []
    names = {
        fn.qualname for fn in graph.reachable(step, same_module_only=True)
    }
    assert names == {"Worker.step"}


def test_reachability_crosses_modules_by_name():
    graph = ModuleGraph.from_sources(_RESOLUTION_SOURCES)
    run = graph.function("a.py", "Worker.run")
    reached = {(fn.rel, fn.qualname) for fn in graph.reachable(run)}
    assert ("b.py", "shared") in reached


def test_nested_function_calls_fold_into_the_enclosing_function():
    graph = ModuleGraph.from_sources(
        {
            "m.py": (
                "def outer():\n"
                "    def inner():\n"
                "        deep_call()\n"
                "    return inner\n"
            )
        }
    )
    outer = graph.function("m.py", "outer")
    assert "deep_call" in outer.call_names
    assert set(graph.modules["m.py"].functions) == {"outer"}


# ---------------------------------------------------------------------------
# Reasoned-baseline reconcile
# ---------------------------------------------------------------------------


def _violation(path="m.py", rule="CHG201", code="return True", line=3):
    return Violation(
        path=path, rule=rule, line=line, col=0, message="m", code=code
    )


def _entry(path="m.py", rule="CHG201", code="return True", reason="ok"):
    return {"path": path, "rule": rule, "code": code, "reason": reason}


def test_reconcile_absorbs_one_for_one():
    # Every family goes through the one reconcile: an entry absorbs one
    # live occurrence, and a second identical finding is new.
    det = {"rule": "DET101", "code": "return time.time()"}
    new, old, stale, unjust = reconcile_baseline(
        [
            _violation(line=3),
            _violation(line=9),
            _violation(line=4, **det),
            _violation(line=8, **det),
        ],
        [_entry(), _entry(**det)],
        lambda rel: frozenset(),
    )
    assert [v.line for v in old] == [3, 4]
    assert [v.line for v in new] == [9, 8]
    assert stale == [] and unjust == []


def test_reconcile_reports_stale_entries():
    new, old, stale, unjust = reconcile_baseline(
        [], [_entry()], lambda rel: frozenset()
    )
    assert new == [] and old == []
    assert stale == [_entry()]
    assert unjust == []


def test_reconcile_refuses_unjustified_entries():
    entry = _entry(reason="   ")
    new, old, stale, unjust = reconcile_baseline(
        [_violation()], [entry], lambda rel: frozenset()
    )
    assert len(new) == 1 and old == []
    assert unjust == [entry]


def test_reconcile_never_absorbs_unwaivable_rules():
    new, old, stale, unjust = reconcile_baseline(
        [_violation()],
        [_entry()],
        lambda rel: frozenset({"CHG201"}),
    )
    assert len(new) == 1 and old == []
    # The entry matched nothing it was allowed to absorb: it is stale.
    assert stale == [_entry()]


def test_moduleinfo_violation_snaps_source_line():
    module = ModuleInfo.parse("m.py", "x = 1\ny =  2\n")
    violation = module.violation(module.tree.body[1], "UNIT402", "msg")
    assert violation.line == 2
    assert violation.code == "y =  2"
    assert violation.fingerprint() == ("m.py", "UNIT402", "y =  2")
