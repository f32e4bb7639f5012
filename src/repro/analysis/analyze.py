"""The static gate: ``python -m repro check``.

Runs the four rule passes (DET1xx determinism, CHG2xx charging
completeness, SMP3xx shard-protocol conformance, UNIT4xx units
checking) off one shared :class:`~repro.analysis.graph.ModuleGraph`,
applies the one suppression path (``# analysis: allow[RULE]`` /
``# det: allow[RULE]`` pragmas and the reasoned per-file allowlist
below, both overridden by :data:`UNWAIVABLE`), reconciles what is left
against the one reasoned committed baseline in
``analyze_baseline.json``, and reports.

Exit codes: 0 clean; 1 new violations, stale baseline entries, or
baseline entries missing a justification; 2 internal errors (reserved).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.analysis.charging import check_charging
from repro.analysis.graph import (
    ModuleGraph,
    Violation,
    filter_suppressed,
    load_baseline_entries,
    reconcile_baseline,
    write_baseline_entries,
)
from repro.analysis.lint import check_determinism
from repro.analysis.rules import RULES, describe
from repro.analysis.smp_rules import check_smp
from repro.analysis.units import check_units

#: Default committed baseline, next to this module.  Every entry must
#: carry a non-empty ``reason`` or it absorbs nothing.
ANALYZE_BASELINE_PATH = (
    Path(__file__).resolve().parent / "analyze_baseline.json"
)

#: Per-file waivers: package-relative path -> {rule id -> reason}.
#: A file listed here may violate exactly the named rules; everything
#: else in it is still checked.
FILE_ALLOWLIST: dict[str, dict[str, str]] = {
    "__main__.py": {
        "DET101": "host-side progress reporting: wall time of a whole "
        "experiment run is printed to the operator, never enters "
        "simulation state",
    },
    "sim/rng.py": {
        "DET102": "the sanctioned home of randomness: wraps "
        "random.Random(seed) behind the forkable SeededRng tree",
    },
    "experiments/sweep.py": {
        "DET101": "perf_counter timestamps the engine's wall-clock "
        "stats (SweepStats.wall_s), which are reporting, not results",
    },
    "experiments/table1_primitives.py": {
        "DET101": "Table 1 *is* a wall-clock microbenchmark of the "
        "Python implementation; its numbers are machine-bound by design "
        "and are never cached",
    },
    "experiments/bench_obs.py": {
        "DET101": "bench harness: measures host wall time of the "
        "telemetry pipeline; results go to BENCH_obs.json, not the cache",
    },
    "kernel/events.py": {
        "DET106": "ProcessEventQueue is an IOEvent priority queue (not "
        "a timer queue) and already pairs every entry with a "
        "monotonically-assigned seq tie-breaker",
    },
}

#: Subtree/file prefix -> rules no suppression mechanism (pragma,
#: allowlist, baseline) can waive there.
UNWAIVABLE: dict[str, tuple] = {
    # The CPU and disk device are the two places where simulated time
    # itself is consumed; if either ever stops charging, every ledger
    # and the whole sanitizer story is fiction.
    "kernel/cpu.py": ("CHG201", "CHG202"),
    "io/device.py": ("CHG201", "CHG202"),
    # The exporters and the monitor dashboard promise byte-identical
    # output for a given (tree, params, seed), so a wall-clock read or
    # an unseeded RNG is absolute there.  The telemetry pipeline is pure
    # *readout*: it must never consume unattributed resources itself,
    # and its window math is all in sim-microseconds, so the charging
    # and units families are absolute too.
    "obs/": (
        "DET101", "DET102",
        "CHG201", "CHG202", "UNIT401", "UNIT402", "UNIT403",
    ),
    # An N-kernel cluster run replays byte-for-byte only without wall
    # clocks or unseeded RNGs in the fabric, balancer or global
    # principals; a units mix-up there mis-prices every cross-host
    # delay, and an uncharged primitive would leak work no per-host
    # sanitizer can see.
    "cluster/": (
        "DET101", "DET102",
        "CHG201", "CHG202", "UNIT401", "UNIT402", "UNIT403",
    ),
}


def unwaivable_rules(rel: str) -> frozenset:
    """Rules that cannot be waived for the package-relative path."""
    rules: set = set()
    for prefix, rule_ids in UNWAIVABLE.items():
        if rel.startswith(prefix):
            rules.update(rule_ids)
    return frozenset(rules)


def analyze_graph(
    graph: ModuleGraph,
    allowlist: "dict | None" = None,
) -> list:
    """All four passes over a graph, with suppressions applied."""
    if allowlist is None:
        allowlist = FILE_ALLOWLIST
    raw = (
        check_determinism(graph)
        + check_charging(graph)
        + check_smp(graph)
        + check_units(graph)
    )
    by_module: dict = {}
    for violation in raw:
        by_module.setdefault(violation.path, []).append(violation)
    kept: list = []
    for rel in sorted(by_module):
        module = graph.modules[rel]
        kept.extend(
            filter_suppressed(
                by_module[rel],
                module,
                allowlist.get(rel, {}),
                unwaivable_rules(rel),
            )
        )
    kept.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return kept


# ---------------------------------------------------------------------------
# CLI entry (dispatched from repro.__main__)
# ---------------------------------------------------------------------------


def _violation_dict(violation: Violation) -> dict:
    return {
        "path": violation.path,
        "rule": violation.rule,
        "line": violation.line,
        "col": violation.col,
        "message": violation.message,
        "code": violation.code,
    }


def _update_baseline(violations: list, entries: list, path: Path) -> int:
    """Rewrite the baseline from ``violations``, keeping known reasons."""
    reasons = {
        (e["path"], e["rule"], e["code"]): str(e.get("reason", ""))
        for e in entries
    }
    kept = []
    refused = 0
    missing_reason = 0
    for violation in sorted(violations, key=lambda v: (v.path, v.line)):
        if violation.rule in unwaivable_rules(violation.path):
            refused += 1
            continue
        reason = reasons.get(violation.fingerprint(), "")
        if not reason.strip():
            missing_reason += 1
        kept.append(
            {
                "path": violation.path,
                "rule": violation.rule,
                "code": violation.code,
                "reason": reason,
            }
        )
    write_baseline_entries(kept, path)
    print(f"check: baseline updated ({len(kept)} entries) -> {path}")
    if refused:
        print(
            f"check: refused to grandfather {refused} unwaivable "
            "violation(s); they must be fixed"
        )
    if missing_reason:
        print(
            f"check: {missing_reason} entr(y/ies) need a written "
            '"reason" before the baseline absorbs them'
        )
    return 1 if (refused or missing_reason) else 0


def run_check(
    fmt: str = "text",
    update_baseline: bool = False,
    show_rules: bool = False,
    root: "Path | None" = None,
    baseline_path: "Path | None" = None,
) -> int:
    """Run the gate; print findings; return a process exit code."""
    if show_rules:
        for rule_id in sorted(RULES):
            print(describe(rule_id))
            print()
        return 0
    if baseline_path is None:
        baseline_path = ANALYZE_BASELINE_PATH
    violations = analyze_graph(ModuleGraph.load(root))
    entries = load_baseline_entries(baseline_path)
    if update_baseline:
        return _update_baseline(violations, entries, baseline_path)

    new, grandfathered, stale, unjustified = reconcile_baseline(
        violations, entries, unwaivable_rules
    )
    failed = bool(new or stale or unjustified)
    if fmt == "json":
        payload = {
            "new": [_violation_dict(v) for v in new],
            "grandfathered": [_violation_dict(v) for v in grandfathered],
            "stale_baseline": stale,
            "unjustified_baseline": unjustified,
            "ok": not failed,
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return int(failed)
    for violation in new:
        print(violation.render())
    if grandfathered:
        print(
            f"check: {len(grandfathered)} grandfathered violation(s) "
            "tracked in the reasoned baseline"
        )
    for entry in stale:
        print(
            "check: stale baseline entry (violation no longer "
            f"matches): {entry['path']} {entry['rule']} -- retire it "
            "with --update-baseline"
        )
    for entry in unjustified:
        print(
            "check: baseline entry without a reason absorbs nothing: "
            f"{entry.get('path')} {entry.get('rule')}"
        )
    if new:
        print(
            f"check: {len(new)} new violation(s); see "
            "`python -m repro check --rules` for the catalogue, "
            "suppress a line with `# analysis: allow[<RULE>]` only "
            "with a reviewed reason"
        )
    if failed:
        return 1
    print(
        "check: OK (determinism, charging, shard-protocol and units "
        "invariants hold)"
    )
    return 0
