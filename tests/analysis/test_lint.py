"""Determinism lint: seeded rule fixtures, suppression mechanics, and
the clean-tree gate (`python -m repro lint` must exit 0 on HEAD)."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import lint
from repro.analysis.rules import RULES, describe

# ---------------------------------------------------------------------------
# Rule fixtures: each snippet must trigger exactly its rule.
# ---------------------------------------------------------------------------

TRIGGER_FIXTURES = [
    # DET101: wall clocks, through every import spelling.
    ("DET101", "import time\n\ndef f():\n    return time.time()\n"),
    ("DET101", "import time as t\n\ndef f():\n    return t.monotonic()\n"),
    (
        "DET101",
        "from time import perf_counter\n\ndef f():\n"
        "    return perf_counter()\n",
    ),
    (
        "DET101",
        "from time import perf_counter as pc\n\ndef f():\n"
        "    return pc()\n",
    ),
    (
        "DET101",
        "from datetime import datetime\n\ndef f():\n"
        "    return datetime.now()\n",
    ),
    (
        "DET101",
        "import datetime\n\ndef f():\n"
        "    return datetime.datetime.utcnow()\n",
    ),
    # DET102: the global random module.
    ("DET102", "import random\n\ndef f():\n    return random.random()\n"),
    ("DET102", "import random\n\ndef f():\n    return random.Random(1)\n"),
    ("DET102", "from random import choice\n"),
    # DET103: OS entropy.
    ("DET103", "import os\n\ndef f():\n    return os.urandom(16)\n"),
    ("DET103", "import uuid\n\ndef f():\n    return uuid.uuid4()\n"),
    (
        "DET103",
        "import secrets\n\ndef f():\n    return secrets.token_hex(8)\n",
    ),
    # DET104: salted builtin hash.
    ("DET104", "def f(name):\n    return hash(name) % 64\n"),
    # DET105: hash-ordered set iteration.
    ("DET105", "def f():\n    for x in {1, 2, 3}:\n        print(x)\n"),
    (
        "DET105",
        "def f(items):\n    s = set(items)\n"
        "    for x in s:\n        print(x)\n",
    ),
    ("DET105", "def f(items):\n    return [x for x in set(items)]\n"),
    ("DET105", "def f(items):\n    return list({i + 1 for i in items})\n"),
    (
        "DET105",
        "SEEN = {'a', 'b'}\n\ndef f():\n"
        "    return tuple(SEEN)\n",
    ),
    # DET106: stray binary heaps (fixtures lint as a non-exempt path).
    ("DET106", "import heapq\n"),
    ("DET106", "from heapq import heappush\n"),
    # DET107: id streams created at import time.
    ("DET107", "import itertools\n\n_ids = itertools.count(1)\n"),
    ("DET107", "from itertools import count\n\n_ids = count(1)\n"),
]

CLEAN_FIXTURES = [
    # Simulated time is the deterministic clock.
    "def f(sim):\n    return sim.now\n",
    # Seeded RNG use is the sanctioned pattern.
    "def f(rng):\n    return rng.uniform(0.0, 1.0)\n",
    # sorted() launders set order deterministically.
    "def f(items):\n    s = set(items)\n    return sorted(s)\n",
    "def f(items):\n    for x in sorted(set(items)):\n        print(x)\n",
    # Membership tests never observe ordering.
    "def f(items, x):\n    s = set(items)\n    return x in s\n",
    # A name rebound to a sorted list is no longer a bare set.
    "def f(items):\n    s = set(items)\n    s = sorted(s)\n"
    "    return [x for x in s]\n",
    # hashlib digests are stable, unlike hash().
    "import hashlib\n\ndef f(data):\n"
    "    return hashlib.sha256(data).hexdigest()\n",
    # dict iteration is insertion-ordered, hence deterministic.
    "def f(mapping):\n    return [k for k in mapping]\n",
]


@pytest.mark.parametrize("rule,source", TRIGGER_FIXTURES)
def test_fixture_triggers_its_rule(rule, source):
    violations = lint.lint_source(source, "fixture.py")
    assert [v.rule for v in violations] == [rule], (
        f"expected exactly one {rule} for:\n{source}\n"
        f"got: {[(v.rule, v.message) for v in violations]}"
    )


@pytest.mark.parametrize("source", CLEAN_FIXTURES)
def test_clean_fixture_passes(source):
    assert lint.lint_source(source, "fixture.py") == []


def test_every_rule_has_a_trigger_fixture():
    # The analyzer families (CHG/SMP/UNIT) have their own fixture
    # meta-test in test_analyze.py; the lint owns the DET family.
    covered = {rule for rule, _src in TRIGGER_FIXTURES}
    det_rules = {r for r in RULES if r.startswith("DET")}
    assert covered == det_rules, "each lint rule needs a fixture"


def test_rule_catalogue_names_what_breaks():
    for rule_id in RULES:
        text = describe(rule_id)
        assert rule_id in text
        # Rationale must tie the rule to a concrete artifact.
        assert any(
            word in text for word in ("cache", "digest", "ledger")
        ), f"{rule_id} rationale names no protected artifact"


# ---------------------------------------------------------------------------
# Suppression mechanics
# ---------------------------------------------------------------------------


def test_inline_pragma_requires_matching_rule_id():
    flagged = "import time\n\ndef f():\n    return time.time()\n"
    waived = flagged.replace(
        "time.time()", "time.time()  # det: allow[DET101]"
    )
    wrong_id = flagged.replace(
        "time.time()", "time.time()  # det: allow[DET104]"
    )
    assert lint.lint_source(flagged, "x.py") != []
    assert lint.lint_source(waived, "x.py") == []
    # A pragma naming the wrong rule waives nothing.
    assert [v.rule for v in lint.lint_source(wrong_id, "x.py")] == ["DET101"]


def test_file_allowlist_waives_only_named_rules():
    source = (
        "import time\nimport random\n\n"
        "def f():\n    return time.time() + random.random()\n"
    )
    only_wall = lint.lint_source(source, "bench.py", allowed={"DET101"})
    assert [v.rule for v in only_wall] == ["DET102"]


def test_allowlist_entries_all_name_reasons():
    for path, rules in lint.FILE_ALLOWLIST.items():
        for rule_id, reason in rules.items():
            assert rule_id in RULES, f"{path} allowlists unknown {rule_id}"
            assert len(reason) > 10, f"{path}:{rule_id} needs a real reason"


# ---------------------------------------------------------------------------
# DET106: stray heaps
# ---------------------------------------------------------------------------


def test_det106_exempts_sim_and_sched_subtrees():
    source = "import heapq\n\ndef f(h):\n    return heapq.heappop(h)\n"
    assert lint.lint_source(source, "sim/events.py") == []
    assert lint.lint_source(source, "sched/container_sched.py") == []
    flagged = lint.lint_source(source, "kernel/timers.py")
    # Both the import and the heappop() call are flagged.
    assert [v.rule for v in flagged] == ["DET106", "DET106"]


def test_det106_flags_aliased_heap_calls():
    source = "import heapq as hq\n\ndef f(h):\n    return hq.heappop(h)\n"
    flagged = lint.lint_source(source, "apps/queueing.py")
    assert [v.rule for v in flagged] == ["DET106", "DET106"]


def test_det106_allowlisted_for_kernel_events_with_reason():
    # kernel/events.py hosts the IOEvent priority queue, which carries
    # its own seq tie-breaker; its waiver must stay narrowly scoped.
    assert "DET106" in lint.FILE_ALLOWLIST["kernel/events.py"]
    source = "import heapq\n"
    allowed = lint.FILE_ALLOWLIST["kernel/events.py"]
    assert lint.lint_source(source, "kernel/events.py", allowed) == []


def test_det107_flags_module_scope_and_ignores_function_bodies():
    # Import-time counters are one stream for every simulation in the
    # process, and a class attribute is as shared as a module global.
    module = "import itertools\n\n_ids = itertools.count(1)\n"
    class_attr = "import itertools\n\nclass C:\n    ids = itertools.count(1)\n"
    assert [v.rule for v in lint.lint_source(module, "net/x.py")] == ["DET107"]
    assert [v.rule for v in lint.lint_source(class_attr, "net/x.py")] == [
        "DET107"
    ]
    # Counters built per call or per instance are per-owner state.
    function = "import itertools\n\ndef f():\n    return itertools.count(1)\n"
    method = (
        "import itertools\n\nclass C:\n    def __init__(self):\n"
        "        self._ids = itertools.count(1)\n"
    )
    assert lint.lint_source(function, "net/x.py") == []
    assert lint.lint_source(method, "net/x.py") == []
    # The allowlist grants DET107 to no file.
    assert not any("DET107" in rules for rules in lint.FILE_ALLOWLIST.values())


# ---------------------------------------------------------------------------
# Baseline mechanics
# ---------------------------------------------------------------------------


def _tree(tmp_path: Path, files: dict) -> Path:
    root = tmp_path / "pkg"
    root.mkdir()
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


def test_baseline_grandfathers_existing_violations(tmp_path):
    root = _tree(
        tmp_path,
        {"old.py": "import time\n\ndef f():\n    return time.time()\n"},
    )
    violations = lint.lint_tree(root=root, allowlist={})
    assert len(violations) == 1
    baseline_path = tmp_path / "baseline.json"
    lint.write_baseline(violations, baseline_path)
    baseline = lint.load_baseline(baseline_path)
    new, grandfathered = lint.split_by_baseline(violations, baseline)
    assert new == [] and len(grandfathered) == 1


def test_baseline_does_not_absorb_new_violations(tmp_path):
    root = _tree(
        tmp_path,
        {"old.py": "import time\n\ndef f():\n    return time.time()\n"},
    )
    baseline_path = tmp_path / "baseline.json"
    lint.write_baseline(
        lint.lint_tree(root=root, allowlist={}), baseline_path
    )
    # A *second* copy of the same pattern is a new violation: baseline
    # entries absorb matches one-for-one.
    (root / "old.py").write_text(
        "import time\n\ndef f():\n    return time.time()\n\n"
        "def g():\n    return time.time()\n",
        encoding="utf-8",
    )
    violations = lint.lint_tree(root=root, allowlist={})
    new, grandfathered = lint.split_by_baseline(
        violations, lint.load_baseline(baseline_path)
    )
    assert len(grandfathered) == 1 and len(new) == 1


def test_baseline_survives_line_shifts(tmp_path):
    root = _tree(
        tmp_path,
        {"old.py": "import time\n\ndef f():\n    return time.time()\n"},
    )
    baseline_path = tmp_path / "baseline.json"
    lint.write_baseline(
        lint.lint_tree(root=root, allowlist={}), baseline_path
    )
    # Unrelated edits above the violation must not churn the baseline.
    (root / "old.py").write_text(
        "import time\n\nPADDING = 1\n\n\ndef f():\n    return time.time()\n",
        encoding="utf-8",
    )
    new, grandfathered = lint.split_by_baseline(
        lint.lint_tree(root=root, allowlist={}),
        lint.load_baseline(baseline_path),
    )
    assert new == [] and len(grandfathered) == 1


def test_missing_baseline_file_is_empty():
    assert lint.load_baseline(Path("/nonexistent/baseline.json")) == {}


# ---------------------------------------------------------------------------
# The clean-tree gate
# ---------------------------------------------------------------------------


def test_head_tree_is_clean_in_process():
    """No new violations in the tree as imported (library-level gate)."""
    new, _grandfathered = lint.split_by_baseline(
        lint.lint_tree(), lint.load_baseline()
    )
    assert new == [], "\n".join(v.render() for v in new)


def test_cli_lint_exits_zero_on_head():
    """`python -m repro lint` is the CI entry point; it must pass."""
    env = dict(os.environ)
    src = str(Path(lint.__file__).resolve().parents[3])
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "lint: OK" in proc.stdout


def test_cli_lint_fails_on_violating_tree(tmp_path):
    """Exit is non-zero when a violation fixture is in the linted tree."""
    root = _tree(
        tmp_path,
        {"bad.py": "import random\n\ndef f():\n    return random.random()\n"},
    )
    code = lint.run_lint(root=root, baseline_path=tmp_path / "none.json")
    assert code == 1


# ---------------------------------------------------------------------------
# Unwaivable rules (the obs/ wall-clock ban)
# ---------------------------------------------------------------------------

WALL_CLOCK_SRC = (
    "import time\n\ndef f():\n"
    "    return time.time()  # det: allow[DET101]\n"
)


def test_obs_wall_clock_ignores_inline_pragma():
    """Under obs/ the pragma that works everywhere else is ignored."""
    assert lint.lint_source(WALL_CLOCK_SRC, "metrics/x.py") == []
    violations = lint.lint_source(WALL_CLOCK_SRC, "obs/export.py")
    assert [v.rule for v in violations] == ["DET101"]


def test_obs_wall_clock_ignores_allowlist():
    violations = lint.lint_source(
        WALL_CLOCK_SRC, "obs/export.py", allowed=["DET101"]
    )
    assert [v.rule for v in violations] == ["DET101"]
    # Waivable rules in obs/ still honour suppressions.
    assert lint.lint_source(
        "import random\n", "obs/export.py", allowed=["DET102"]
    ) == []


def test_obs_wall_clock_cannot_be_baselined(tmp_path):
    """A stale baseline fingerprint must not absorb an unwaivable
    violation, and --update-baseline refuses to record one."""
    root = _tree(
        tmp_path,
        {"obs/clock.py": "import time\n\ndef f():\n    return time.time()\n"},
    )
    violations = lint.lint_tree(root=root, allowlist={})
    baseline_path = tmp_path / "baseline.json"
    lint.write_baseline(violations, baseline_path)  # hand-forged baseline
    new, grandfathered = lint.split_by_baseline(
        violations, lint.load_baseline(baseline_path)
    )
    assert grandfathered == []
    assert [v.rule for v in new] == ["DET101"]
    # The CLI update path filters it out and fails the build.
    code = lint.run_lint(
        update_baseline=True, root=root, baseline_path=baseline_path
    )
    assert code == 1
    assert lint.load_baseline(baseline_path) == {}


def test_unwaivable_rules_lookup():
    assert "DET101" in lint.unwaivable_rules("obs/spans.py")
    assert "DET101" in lint.unwaivable_rules("obs/deep/nested.py")
    assert lint.unwaivable_rules("kernel/cpu.py") == frozenset()
    # Both nondeterminism-source families are absolute under obs/
    # (wall clocks and unseeded RNG would both break the dashboard
    # byte-identity gate); other rules stay waivable.
    assert "DET102" in lint.unwaivable_rules("obs/spans.py")
    assert "DET105" not in lint.unwaivable_rules("obs/spans.py")
