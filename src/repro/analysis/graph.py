"""Shared single-parse module graph for the static-analysis passes.

Every rule pass of the static gate (the DET1xx determinism pass, the
CHG2xx charging pass, the SMP3xx shard-protocol pass, the UNIT4xx units
checker) runs off one :class:`ModuleGraph`: each ``*.py`` file under
the package is read and ``ast.parse``\\ d exactly once, and the parsed
tree, source lines, suppression pragmas, unit annotations, and
per-function call tables are shared by every pass.

The suppression machinery every pass goes through:

* **Inline pragma** -- ``# det: allow[DET101]`` (the original spelling)
  and ``# analysis: allow[CHG201,UNIT402]`` (the generalised spelling,
  accepting a comma list) are both collected per line.
* **Unit annotation** -- ``# analysis: unit[name=us]`` declares the
  dimension of a name for the whole file; ``unit[name=none]`` clears a
  suffix-inferred dimension (see :mod:`repro.analysis.units`).
* **Baselines with reasons** -- the gate's baseline is a JSON list of
  ``{path, rule, code, reason}`` entries, keyed by stripped source line
  (not line number) so unrelated edits do not churn them.  Entries
  without a justification do not absorb violations.
"""

from __future__ import annotations

import ast
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence

#: ``# det: allow[DET101]`` or ``# analysis: allow[CHG201, UNIT402]``.
PRAGMA_RE = re.compile(
    r"#\s*(?:det|analysis):\s*allow\[([A-Z]+\d+(?:\s*,\s*[A-Z]+\d+)*)\]"
)

#: ``# analysis: unit[total=us]`` / ``# analysis: unit[ratio=none]``.
UNIT_RE = re.compile(r"#\s*analysis:\s*unit\[(\w+)\s*=\s*(\w+)\]")


@dataclass(frozen=True)
class Violation:
    """One finding, with enough context to fix or baseline it."""

    path: str  # package-relative, forward slashes
    rule: str
    line: int
    col: int
    message: str
    code: str  # stripped source line, the baseline fingerprint payload

    def fingerprint(self) -> tuple:
        """Line-number-free identity used for baseline matching."""
        return (self.path, self.rule, self.code)

    def render(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule} {self.message}\n    {self.code}"
        )


def collect_pragmas(lines: Sequence[str]) -> dict:
    """line number -> set of rule ids waived on that line."""
    out: dict = {}
    for index, line in enumerate(lines, start=1):
        for match in PRAGMA_RE.finditer(line):
            rules = out.setdefault(index, set())
            for rule_id in match.group(1).split(","):
                rules.add(rule_id.strip())
    return out


def collect_unit_overrides(lines: Sequence[str]) -> dict:
    """name -> declared dimension for this file (``none`` -> None)."""
    out: dict = {}
    for line in lines:
        for match in UNIT_RE.finditer(line):
            dimension = match.group(2)
            out[match.group(1)] = None if dimension == "none" else dimension
    return out


def call_name(node: ast.Call) -> Optional[str]:
    """Last path segment of a call target: ``a.b.f(...)`` -> ``f``."""
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


@dataclass
class FunctionInfo:
    """One top-level function or method, with its outgoing call names."""

    rel: str
    qualname: str  # "func" or "Class.method"
    cls: Optional[str]
    node: ast.AST
    #: last-segment names of every call anywhere in the body (including
    #: nested defs -- reachability over-approximates, which errs toward
    #: *not* flagging).
    call_names: frozenset

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


#: Node types the passes iterate: collected once during the load walk
#: so no pass ever re-traverses a tree (DET1xx reads imports / calls /
#: loops / comprehensions; SMP3xx reads Expr / stores / Attribute;
#: UNIT4xx reads BinOp / stores / Compare).
INDEXED_NODE_TYPES = (
    ast.Expr,
    ast.Assign,
    ast.AugAssign,
    ast.AnnAssign,
    ast.Attribute,
    ast.BinOp,
    ast.Compare,
    ast.Call,
    ast.For,
    ast.Import,
    ast.ImportFrom,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
    ast.GeneratorExp,
)


def _collect_functions(rel: str, tree: ast.Module) -> tuple:
    """One walk over ``tree``: the function table (with outgoing call
    names), the type-indexed node lists the rule passes iterate, and
    per-function local-binding candidates.

    Index entries are ``(node, chain)`` where ``chain`` is the tuple of
    enclosing function defs, innermost first -- the units checker uses
    it to resolve single-binding locals without re-walking anything.

    ``fn_bindings`` maps each def node (or None for the module pseudo-
    scope, which -- matching the historical lint behaviour -- includes
    class bodies) to ``(bindings, disqualified)``: plain-named locals
    with the value of their first ``=``/annotated assignment (rebinding
    stores None), and names bound by augmented assignment, loop
    targets, ``with ... as``, or tuple unpacking, which neither the
    units checker's local inference nor the lint's set-scope tracking
    may trust.
    """
    functions: dict = {}
    pending: list = []  # (qualname, cls, node, mutable call-name set)
    index: dict = {t: [] for t in INDEXED_NODE_TYPES}
    fn_bindings: dict = {}

    def _binding_slot(fn) -> tuple:
        slot = fn_bindings.get(fn)
        if slot is None:
            slot = ({}, set())
            fn_bindings[fn] = slot
        return slot

    def _disqualify_names(fn, target) -> None:
        bindings, disqualified = _binding_slot(fn)
        for inner in ast.walk(target):
            if inner.__class__ is ast.Name:
                disqualified.add(inner.id)
    # Stack entries: (node, cls, calls, chain).  ``calls`` is the
    # enclosing collected function's call-name set (None at module or
    # class level); nested defs fold their calls into it, so
    # reachability over-approximates, which errs toward *not* flagging.
    stack: list = [(tree, None, None, ())]
    while stack:
        node, cls, calls, chain = stack.pop()
        for child in ast.iter_child_nodes(node):
            kind = child.__class__
            if kind is ast.FunctionDef or kind is ast.AsyncFunctionDef:
                child_chain = (child,) + chain
                if calls is None:
                    # Module- or class-level def: a collected function.
                    qual = f"{cls}.{child.name}" if cls else child.name
                    child_calls: set = set()
                    pending.append((qual, cls, child, child_calls))
                    stack.append((child, None, child_calls, child_chain))
                else:
                    stack.append((child, None, calls, child_chain))
            elif kind is ast.ClassDef:
                # Inside a function, a class body is just more code of
                # that function for call purposes; at top level it is a
                # collection context (innermost class name wins).
                stack.append(
                    (
                        child,
                        cls if calls is not None else child.name,
                        calls,
                        chain,
                    )
                )
            else:
                if kind is ast.Call and calls is not None:
                    name = call_name(child)
                    if name is not None:
                        calls.add(name)
                bucket = index.get(kind)
                if bucket is not None:
                    bucket.append((child, chain))
                fn = chain[0] if chain else None
                if kind is ast.Assign:
                    for target in child.targets:
                        if target.__class__ is ast.Name:
                            bindings, _ = _binding_slot(fn)
                            if target.id in bindings:
                                bindings[target.id] = None
                            else:
                                bindings[target.id] = child.value
                        else:
                            _disqualify_names(fn, target)
                elif kind is ast.AnnAssign:
                    if (
                        child.target.__class__ is ast.Name
                        and child.value is not None
                    ):
                        bindings, _ = _binding_slot(fn)
                        if child.target.id in bindings:
                            bindings[child.target.id] = None
                        else:
                            bindings[child.target.id] = child.value
                elif kind is ast.AugAssign:
                    if child.target.__class__ is ast.Name:
                        _binding_slot(fn)[1].add(child.target.id)
                elif kind is ast.For or kind is ast.AsyncFor:
                    _disqualify_names(fn, child.target)
                elif kind is ast.withitem and child.optional_vars:
                    _disqualify_names(fn, child.optional_vars)
                stack.append((child, cls, calls, chain))
    for qual, cls, node, calls in pending:
        functions[qual] = FunctionInfo(
            rel=rel,
            qualname=qual,
            cls=cls,
            node=node,
            call_names=frozenset(calls),
        )
    return functions, index, fn_bindings


@dataclass
class ModuleInfo:
    """One parsed source file plus everything the passes need from it."""

    rel: str
    source: str
    lines: list
    tree: ast.Module
    pragmas: dict  # line -> set of waived rule ids
    unit_overrides: dict  # name -> dimension or None
    functions: dict  # qualname -> FunctionInfo
    index: dict  # node type -> [(node, enclosing-def chain)], see above
    fn_bindings: dict  # def node -> (bindings, disqualified names)

    @classmethod
    def parse(cls, rel: str, source: str) -> "ModuleInfo":
        tree = ast.parse(source, filename=rel)
        lines = source.splitlines()
        functions, index, fn_bindings = _collect_functions(rel, tree)
        return cls(
            rel=rel,
            source=source,
            lines=lines,
            tree=tree,
            pragmas=collect_pragmas(lines),
            unit_overrides=collect_unit_overrides(lines),
            functions=functions,
            index=index,
            fn_bindings=fn_bindings,
        )

    def violation(
        self, node: ast.AST, rule: str, message: str
    ) -> Violation:
        line = getattr(node, "lineno", 0)
        code = (
            self.lines[line - 1].strip()
            if 0 < line <= len(self.lines)
            else ""
        )
        return Violation(
            path=self.rel,
            rule=rule,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            code=code,
        )


def package_root() -> Path:
    """The installed ``repro`` package directory (the analysis target)."""
    import repro

    return Path(repro.__file__).resolve().parent


class ModuleGraph:
    """All parsed modules plus a name-linked call graph over them."""

    def __init__(self, modules: dict) -> None:
        self.modules = modules  # rel -> ModuleInfo
        self._by_name: dict = {}
        for module in modules.values():
            for fn in module.functions.values():
                self._by_name.setdefault(fn.name, []).append(fn)

    @classmethod
    def load(cls, root: "Path | None" = None) -> "ModuleGraph":
        """Parse every ``*.py`` under ``root`` (default: repro) once."""
        if root is None:
            root = package_root()
        modules: dict = {}
        for path in sorted(Path(root).rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            modules[rel] = ModuleInfo.parse(
                rel, path.read_text(encoding="utf-8")
            )
        return cls(modules)

    @classmethod
    def from_sources(cls, sources: Mapping[str, str]) -> "ModuleGraph":
        """Build a graph from in-memory sources (for tests)."""
        return cls(
            {
                rel: ModuleInfo.parse(rel, source)
                for rel, source in sorted(sources.items())
            }
        )

    def function(self, rel: str, qualname: str) -> Optional[FunctionInfo]:
        module = self.modules.get(rel)
        if module is None:
            return None
        return module.functions.get(qualname)

    def resolve(
        self,
        caller: FunctionInfo,
        name: str,
        same_module_only: bool = False,
    ) -> list:
        """Candidate callees for a call to ``name`` from ``caller``.

        Resolution is by name, most-specific first: a method of the
        caller's own class, then a function/method in the caller's own
        module, then (unless ``same_module_only``) every function in the
        tree with that name.  Over-approximating keeps reachability
        checks from crying wolf.
        """
        module = self.modules[caller.rel]
        if caller.cls is not None:
            method = module.functions.get(f"{caller.cls}.{name}")
            if method is not None:
                return [method]
        local = module.functions.get(name)
        if local is not None:
            return [local]
        in_module = [
            fn for fn in module.functions.values() if fn.name == name
        ]
        if in_module:
            return in_module
        if same_module_only:
            return []
        return list(self._by_name.get(name, ()))

    def reachable(
        self, start: FunctionInfo, same_module_only: bool = False
    ) -> list:
        """Functions reachable from ``start`` (inclusive) over call names."""
        seen = {(start.rel, start.qualname)}
        order = [start]
        frontier = [start]
        while frontier:
            fn = frontier.pop()
            for name in sorted(fn.call_names):
                for callee in self.resolve(
                    fn, name, same_module_only=same_module_only
                ):
                    key = (callee.rel, callee.qualname)
                    if key not in seen:
                        seen.add(key)
                        order.append(callee)
                        frontier.append(callee)
        return order


def filter_suppressed(
    violations: Iterable[Violation],
    module: ModuleInfo,
    allowed: Mapping[str, str],
    unwaivable: frozenset = frozenset(),
) -> list:
    """Drop violations waived by pragma or file allowlist.

    Rules in ``unwaivable`` ignore both mechanisms.
    """
    kept = []
    for violation in violations:
        if violation.rule not in unwaivable:
            if violation.rule in allowed:
                continue
            if violation.rule in module.pragmas.get(violation.line, ()):
                continue
        kept.append(violation)
    return kept


# ---------------------------------------------------------------------------
# Reasoned baselines (line-shift robust, justification required)
# ---------------------------------------------------------------------------


def load_baseline_entries(path: Path) -> list:
    """Baseline entries as dicts (missing/invalid file -> empty list)."""
    try:
        entries = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return []
    return [e for e in entries if isinstance(e, dict)]


def write_baseline_entries(entries: Sequence[dict], path: Path) -> Path:
    Path(path).write_text(
        json.dumps(list(entries), indent=2) + "\n", encoding="utf-8"
    )
    return Path(path)


def reconcile_baseline(
    violations: Sequence[Violation],
    entries: Sequence[dict],
    unwaivable_for,
) -> tuple:
    """Split violations against a reasoned baseline.

    Returns ``(new, grandfathered, stale, unjustified)``:

    * entries absorb matching violations one-for-one (a *second*
      occurrence of a grandfathered fingerprint is still new);
    * entries whose fingerprint no longer matches anything are *stale*
      and should be retired;
    * entries with no non-empty ``reason`` are *unjustified* -- they
      absorb nothing, so their violations surface as new;
    * unwaivable violations are always new, baseline or not.
    """
    justified = [e for e in entries if str(e.get("reason", "")).strip()]
    unjustified = [
        e for e in entries if not str(e.get("reason", "")).strip()
    ]
    budget = Counter(
        (e["path"], e["rule"], e["code"]) for e in justified
    )
    used: Counter = Counter()
    new = []
    grandfathered = []
    for violation in violations:
        fp = violation.fingerprint()
        if (
            violation.rule not in unwaivable_for(violation.path)
            and budget[fp] > 0
        ):
            budget[fp] -= 1
            used[fp] += 1
            grandfathered.append(violation)
        else:
            new.append(violation)
    stale = []
    spent: Counter = Counter()
    for entry in justified:
        fp = (entry["path"], entry["rule"], entry["code"])
        spent[fp] += 1
        if spent[fp] > used[fp]:
            stale.append(entry)
    return new, grandfathered, stale, unjustified
