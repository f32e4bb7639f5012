"""AST-based determinism lint over the ``repro`` source tree.

The checker walks every ``*.py`` file under the installed package and
flags source patterns that can make a simulation run depend on anything
other than (source tree, parameters, seed) -- the exact identity the
sweep cache and the trace-digest tests rely on.  See
:mod:`repro.analysis.rules` for the catalogue and the rationale behind
each rule.

Three suppression mechanisms, from narrowest to widest:

* **Inline pragma** -- ``# det: allow[DET101]`` on the flagged line.
  The rule id is mandatory, so a waiver always names what it waives.
* **Per-file allowlist** -- :data:`FILE_ALLOWLIST` maps package-relative
  paths to the rules that whole file may use, with a reason.  Bench
  harnesses legitimately read ``perf_counter`` (they *measure* the
  host); ``sim/rng.py`` legitimately wraps ``random.Random``.
* **Committed baseline** -- grandfathered violations recorded in
  ``lint_baseline.json`` are reported but do not fail the build; any
  violation *not* in the baseline does.  The baseline is keyed by
  (path, rule, source-line text), not line numbers, so unrelated edits
  do not churn it.  ``python -m repro lint --update-baseline`` rewrites
  it from the current tree.

One carve-out overrides all three: :data:`UNWAIVABLE` names rules that
certain subtrees may *never* violate, pragma or no pragma.  The
observability layer (``obs/``) exists to prove runs are byte-identical,
so a wall clock anywhere under it is always a build failure -- an
inline waiver is ignored, the allowlist cannot name it, and
``--update-baseline`` refuses to grandfather it.
"""

from __future__ import annotations

import ast
import json
import re
from collections import Counter
from pathlib import Path
from typing import Iterable, Optional, Sequence

from repro.analysis.graph import (
    ModuleGraph,
    ModuleInfo,
    Violation,
    collect_pragmas,
    package_root,
)
from repro.analysis.rules import RULES

#: ``# det: allow[DET101]`` (optionally with trailing prose).  Kept for
#: reference; pragma collection now lives in
#: :func:`repro.analysis.graph.collect_pragmas`, which also accepts the
#: generalised ``# analysis: allow[...]`` spelling.
_PRAGMA_RE = re.compile(r"#\s*det:\s*allow\[(DET\d+)\]")

#: Default committed baseline, next to this module.
BASELINE_PATH = Path(__file__).resolve().parent / "lint_baseline.json"

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

#: Subtrees whose heap use DET106 sanctions wholesale: the engine's
#: timer queues live in sim/, the scheduler's decay buckets in sched/.
_DET106_EXEMPT_PREFIXES = ("sim/", "sched/")

#: Subtree prefix -> rules no suppression mechanism can waive there.
#: The exporters (and, since the telemetry PR, the monitor dashboard
#: gate) promise byte-identical output for a given (tree, params,
#: seed); a wall-clock read or an unseeded RNG anywhere under ``obs/``
#: would break that silently, so DET101/DET102 are absolute there.
UNWAIVABLE: dict[str, tuple] = {
    "obs/": ("DET101", "DET102"),
    # The cluster layer's whole claim is that an N-kernel run replays
    # byte-for-byte; a wall clock or unseeded RNG in the fabric, the
    # balancer, or the global principals would break every cluster
    # digest silently, so the determinism rules are absolute there.
    "cluster/": ("DET101", "DET102"),
}


def unwaivable_rules(rel: str) -> frozenset:
    """Rules that cannot be waived for the package-relative path."""
    rules: set = set()
    for prefix, rule_ids in UNWAIVABLE.items():
        if rel.startswith(prefix):
            rules.update(rule_ids)
    return frozenset(rules)

# -- call-name tables -------------------------------------------------------

_WALL_CLOCK_CALLS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

_ENTROPY_CALLS = {
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
    "secrets.token_bytes",
    "secrets.token_hex",
    "secrets.token_urlsafe",
    "secrets.randbelow",
    "secrets.randbits",
    "secrets.choice",
}

#: Builtins whose call realises a bare set's (hash-salted) order.
_ORDER_REALISING = {"list", "tuple", "enumerate", "iter", "next", "reversed"}


def _scope_set_names(module: ModuleInfo) -> dict:
    """Per-scope local names that can only be bare sets, derived from
    the binding candidates the graph's load walk collected (scope key:
    def node, or None for the module pseudo-scope).

    Deliberately conservative: a rebound name, a parameter, or a name
    bound by a loop target / ``with ... as`` / augmented assignment
    disqualifies itself, so only a name whose single binding is a set
    display/comprehension/constructor qualifies.
    """
    scopes: dict = {}
    for fn, (bindings, disqualified) in module.fn_bindings.items():
        params = frozenset(_all_args(fn.args)) if fn is not None else ()
        names = {
            name
            for name, value in bindings.items()
            if value is not None
            and name not in disqualified
            and name not in params
            and _is_bare_set(value)
        }
        if names:
            scopes[fn] = names
    return scopes


def _all_args(args: ast.arguments) -> list[str]:
    out = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg:
        out.append(args.vararg.arg)
    if args.kwarg:
        out.append(args.kwarg.arg)
    return out


def _is_bare_set(node: ast.AST) -> bool:
    """Syntactically-certain set expressions."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    ):
        return True
    return False


class _Linter:
    """DET rule checks over the graph's prebuilt node index.  Each check
    receives the node plus its enclosing-def chain (innermost first) --
    the traversal happened once, during graph load."""

    def __init__(
        self,
        rel: str,
        lines: Sequence[str],
        allowed: frozenset,
        pragmas: dict[int, set],
        set_scopes: dict[ast.AST, set],
        unwaivable: frozenset = frozenset(),
    ) -> None:
        self.rel = rel
        self.lines = lines
        self.allowed = allowed
        self.pragmas = pragmas
        self.unwaivable = unwaivable
        self.set_scopes = set_scopes
        self.violations: list[Violation] = []
        #: alias -> dotted module/name it stands for.
        self.aliases: dict[str, str] = {}

    # -- reporting ---------------------------------------------------------

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        line = getattr(node, "lineno", 0)
        if rule not in self.unwaivable:
            if rule in self.allowed:
                return
            if rule in self.pragmas.get(line, ()):
                return
        code = self.lines[line - 1].strip() if 0 < line <= len(self.lines) else ""
        self.violations.append(
            Violation(
                path=self.rel,
                rule=rule,
                line=line,
                col=getattr(node, "col_offset", 0),
                message=message,
                code=code,
            )
        )

    # -- import tracking ---------------------------------------------------

    def handle_import(self, node: ast.Import) -> None:
        for alias in node.names:
            self.aliases[alias.asname or alias.name.split(".")[0]] = (
                alias.name if alias.asname else alias.name.split(".")[0]
            )
            if alias.name == "heapq" and not self.rel.startswith(
                _DET106_EXEMPT_PREFIXES
            ):
                self._flag(
                    node,
                    "DET106",
                    "direct heapq import outside sim//sched/; heaps "
                    "without seq tie-breakers pop equal keys in "
                    "process-dependent order -- use Simulation.at/after "
                    "or get the file reviewed onto the allowlist",
                )

    def handle_import_from(self, node: ast.ImportFrom) -> None:
        if node.module is None or node.level:
            return
        if node.module == "heapq" and not self.rel.startswith(
            _DET106_EXEMPT_PREFIXES
        ):
            self._flag(
                node,
                "DET106",
                "direct heapq import outside sim//sched/; heaps "
                "without seq tie-breakers pop equal keys in "
                "process-dependent order -- use Simulation.at/after "
                "or get the file reviewed onto the allowlist",
            )
        if node.module == "random" or node.module.startswith("random."):
            self._flag(
                node,
                "DET102",
                "import from the global `random` module; draw from the "
                "simulation's SeededRng (sim/rng.py) instead",
            )
        for alias in node.names:
            self.aliases[alias.asname or alias.name] = (
                f"{node.module}.{alias.name}"
            )

    # -- name resolution ---------------------------------------------------

    def _dotted(self, node: ast.AST) -> Optional[str]:
        """Resolve ``node`` to a dotted name through import aliases."""
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))

    # -- scope-aware set lookups -------------------------------------------

    def _in_scope_set_name(self, node: ast.AST, chain: tuple) -> bool:
        if not isinstance(node, ast.Name):
            return False
        scopes = self.set_scopes
        for fn in chain:
            names = scopes.get(fn, ())
            if node.id in names:
                return True
        return node.id in scopes.get(None, ())  # module pseudo-scope

    def _is_set_valued(self, node: ast.AST, chain: tuple) -> bool:
        return _is_bare_set(node) or self._in_scope_set_name(node, chain)

    # -- the rules ---------------------------------------------------------

    def check_call(self, node: ast.Call, chain: tuple) -> None:
        dotted = self._dotted(node.func)
        if dotted in _WALL_CLOCK_CALLS:
            self._flag(
                node,
                "DET101",
                f"wall-clock call {dotted}(); simulated time is "
                "Simulation.now -- host time may only appear in "
                "allowlisted bench/reporting files",
            )
        elif dotted in _ENTROPY_CALLS:
            self._flag(
                node,
                "DET103",
                f"OS entropy via {dotted}(); derive values from the "
                "seeded RNG tree so runs are reproducible",
            )
        elif (
            isinstance(node.func, ast.Name)
            and node.func.id == "hash"
            and node.func.id not in self.aliases
        ):
            self._flag(
                node,
                "DET104",
                "builtin hash() is salted per process (PYTHONHASHSEED); "
                "use zlib.crc32/hashlib for stable digests",
            )
        elif (
            isinstance(node.func, ast.Name)
            and node.func.id in _ORDER_REALISING
            and node.args
            and self._is_set_valued(node.args[0], chain)
        ):
            self._flag(
                node,
                "DET105",
                f"{node.func.id}() over a bare set realises hash-salted "
                "order; wrap the set in sorted(...)",
            )
        if (
            dotted is not None
            and dotted.startswith("heapq.")
            and not self.rel.startswith(_DET106_EXEMPT_PREFIXES)
        ):
            self._flag(
                node,
                "DET106",
                f"heap operation {dotted}() outside sim//sched/; heaps "
                "without seq tie-breakers pop equal keys in "
                "process-dependent order",
            )
        if dotted == "itertools.count" and not chain:
            self._flag(
                node,
                "DET107",
                "itertools.count() at import time is one id stream for "
                "every simulation in the process; draw ids from "
                "Simulation.id_stream(name) or keep the counter on an "
                "instance",
            )
        if dotted is not None and (
            dotted == "random" or dotted.startswith("random.")
        ):
            self._flag(
                node,
                "DET102",
                f"global-random call {dotted}(); draw from the "
                "simulation's SeededRng (sim/rng.py) instead",
            )

    def check_for(self, node: ast.For, chain: tuple) -> None:
        if self._is_set_valued(node.iter, chain):
            self._flag(
                node,
                "DET105",
                "for-loop over a bare set iterates in hash-salted order; "
                "wrap the set in sorted(...)",
            )

    def check_comprehension(self, node, chain: tuple) -> None:
        for gen in node.generators:
            if self._is_set_valued(gen.iter, chain):
                self._flag(
                    gen.iter,
                    "DET105",
                    "comprehension over a bare set iterates in "
                    "hash-salted order; wrap the set in sorted(...)",
                )


# ---------------------------------------------------------------------------
# Driving
# ---------------------------------------------------------------------------


def lint_module(
    module: ModuleInfo, allowed: Iterable[str] = ()
) -> list[Violation]:
    """Lint one pre-parsed module off the shared graph's node index."""
    linter = _Linter(
        rel=module.rel,
        lines=module.lines,
        allowed=frozenset(allowed),
        pragmas=module.pragmas,
        set_scopes=_scope_set_names(module),
        unwaivable=unwaivable_rules(module.rel),
    )
    index = module.index
    # Imports first (they build the alias table the call checks consult),
    # in source order so a re-bound alias resolves like it always did.
    imports = [
        (node, linter.handle_import) for node, _c in index[ast.Import]
    ]
    imports.extend(
        (node, linter.handle_import_from)
        for node, _c in index[ast.ImportFrom]
    )
    imports.sort(key=lambda pair: pair[0].lineno)
    for node, handle in imports:
        handle(node)
    for node, chain in index[ast.Call]:
        linter.check_call(node, chain)
    for node, chain in index[ast.For]:
        linter.check_for(node, chain)
    for comp_type in (
        ast.ListComp,
        ast.SetComp,
        ast.DictComp,
        ast.GeneratorExp,
    ):
        for node, chain in index[comp_type]:
            linter.check_comprehension(node, chain)
    linter.violations.sort(key=lambda v: (v.line, v.col, v.rule))
    return linter.violations


def lint_source(
    source: str, rel: str, allowed: Iterable[str] = ()
) -> list[Violation]:
    """Lint one file's source text; ``rel`` names it in findings.

    Rules that are :func:`unwaivable_rules` for ``rel`` ignore both
    ``allowed`` and inline pragmas.
    """
    return lint_module(ModuleInfo.parse(rel, source), allowed)


def lint_graph(
    graph: ModuleGraph,
    allowlist: "dict[str, dict[str, str]] | None" = None,
) -> list[Violation]:
    """Lint every module of an already-parsed :class:`ModuleGraph`."""
    if allowlist is None:
        allowlist = FILE_ALLOWLIST
    violations: list[Violation] = []
    for rel in sorted(graph.modules):
        module = graph.modules[rel]
        violations.extend(lint_module(module, allowlist.get(rel, {})))
    return violations


def lint_tree(
    root: "Path | None" = None,
    allowlist: "dict[str, dict[str, str]] | None" = None,
) -> list[Violation]:
    """Lint every ``*.py`` under ``root`` (default: the repro package)."""
    return lint_graph(ModuleGraph.load(root), allowlist)


# ---------------------------------------------------------------------------
# Baseline
# ---------------------------------------------------------------------------


def load_baseline(path: "Path | None" = None) -> Counter:
    """Multiset of grandfathered fingerprints (missing file = empty)."""
    if path is None:
        path = BASELINE_PATH
    try:
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return Counter()
    return Counter(
        (e["path"], e["rule"], e["code"]) for e in entries
    )


def write_baseline(
    violations: Sequence[Violation], path: "Path | None" = None
) -> Path:
    """Persist the given violations as the new grandfathered baseline."""
    if path is None:
        path = BASELINE_PATH
    entries = [
        {"path": v.path, "rule": v.rule, "code": v.code}
        for v in sorted(violations, key=lambda v: (v.path, v.line))
    ]
    Path(path).write_text(
        json.dumps(entries, indent=2) + "\n", encoding="utf-8"
    )
    return Path(path)


def split_by_baseline(
    violations: Sequence[Violation], baseline: Counter
) -> "tuple[list[Violation], list[Violation]]":
    """(new, grandfathered): baseline entries absorb matching violations
    one-for-one, so a *second* occurrence of a grandfathered pattern is
    still new.  Unwaivable violations are always new, even when a stale
    (hand-edited) baseline lists their fingerprint."""
    budget = Counter(baseline)
    new: list[Violation] = []
    old: list[Violation] = []
    for violation in violations:
        fp = violation.fingerprint()
        if (
            violation.rule not in unwaivable_rules(violation.path)
            and budget[fp] > 0
        ):
            budget[fp] -= 1
            old.append(violation)
        else:
            new.append(violation)
    return new, old


# ---------------------------------------------------------------------------
# CLI entry (dispatched from repro.__main__)
# ---------------------------------------------------------------------------


def run_lint(
    update_baseline: bool = False,
    show_rules: bool = False,
    root: "Path | None" = None,
    baseline_path: "Path | None" = None,
    graph: "ModuleGraph | None" = None,
) -> int:
    """Run the tree lint; print findings; return a process exit code."""
    from repro.analysis.rules import describe

    if show_rules:
        for rule_id in sorted(RULES):
            print(describe(rule_id))
            print()
        return 0
    if graph is None:
        graph = ModuleGraph.load(root)
    violations = lint_graph(graph)
    if update_baseline:
        fixable = [
            v for v in violations
            if v.rule not in unwaivable_rules(v.path)
        ]
        path = write_baseline(fixable, baseline_path)
        print(f"lint: baseline updated ({len(fixable)} entries) -> {path}")
        refused = len(violations) - len(fixable)
        if refused:
            print(
                f"lint: refused to grandfather {refused} unwaivable "
                "violation(s); they must be fixed"
            )
            return 1
        return 0
    new, grandfathered = split_by_baseline(
        violations, load_baseline(baseline_path)
    )
    for violation in new:
        print(violation.render())
    if grandfathered:
        print(
            f"lint: {len(grandfathered)} grandfathered violation(s) "
            "tracked in the baseline (fix and --update-baseline to retire)"
        )
    if new:
        print(
            f"lint: {len(new)} new violation(s); see "
            "`python -m repro lint --rules` for the catalogue, "
            "suppress a line with `# det: allow[<RULE>]` only with a "
            "reviewed reason"
        )
        return 1
    print("lint: OK (no new determinism violations)")
    return 0
