"""DET1xx: the determinism pass of the static gate.

The pass walks every module of the shared
:class:`~repro.analysis.graph.ModuleGraph` and flags source patterns
that can make a simulation run depend on anything other than (source
tree, parameters, seed) -- the exact identity the sweep cache and the
trace-digest tests rely on.  See :mod:`repro.analysis.rules` for the
catalogue and the rationale behind each rule.

Like the other rule passes, :func:`check_determinism` returns raw
findings; :func:`repro.analysis.analyze.analyze_graph` applies the one
suppression path (pragmas, the reasoned per-file allowlist, the
unwaivable carve-outs) and ``python -m repro check`` reconciles what is
left against the one reasoned baseline.
"""

from __future__ import annotations

import ast
from typing import Iterable, Optional

from repro.analysis.graph import (
    ModuleGraph,
    ModuleInfo,
    Violation,
    filter_suppressed,
)

#: Subtrees whose heap use DET106 sanctions wholesale: the engine's
#: timer queues live in sim/, the scheduler's decay buckets in sched/.
_DET106_EXEMPT_PREFIXES = ("sim/", "sched/")

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

    def __init__(self, module: ModuleInfo) -> None:
        self.module = module
        self.rel = module.rel
        self.set_scopes = _scope_set_names(module)
        self.violations: list[Violation] = []
        #: alias -> dotted module/name it stands for.
        self.aliases: dict[str, str] = {}

    def _flag(self, node: ast.AST, rule: str, message: str) -> None:
        self.violations.append(self.module.violation(node, rule, message))

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
# The pass
# ---------------------------------------------------------------------------


def lint_module(module: ModuleInfo) -> list[Violation]:
    """Raw DET findings for one pre-parsed module, off its node index."""
    linter = _Linter(module)
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


def check_determinism(graph: ModuleGraph) -> list[Violation]:
    """DET1xx over every module of the graph, before suppression."""
    violations: list[Violation] = []
    for rel in sorted(graph.modules):
        violations.extend(lint_module(graph.modules[rel]))
    return violations


def lint_source(
    source: str, rel: str, allowed: Iterable[str] = ()
) -> list[Violation]:
    """DET findings for one file's source text, ``rel`` naming it, after
    the gate's suppression with ``allowed`` as the file's allowlist.

    Rules that are unwaivable for ``rel`` ignore both ``allowed`` and
    inline pragmas.
    """
    # Imported here: analyze imports this module for the pass.
    from repro.analysis.analyze import unwaivable_rules

    module = ModuleInfo.parse(rel, source)
    return filter_suppressed(
        lint_module(module), module, frozenset(allowed), unwaivable_rules(rel)
    )
