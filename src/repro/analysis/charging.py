"""CHG2xx: charging-completeness dataflow pass.

The paper's core guarantee is that *all* resource consumption is
attributed to a resource container.  The runtime sanitizer checks this
dynamically, but only on paths a given seed exercises.  This pass
proves it statically: every registered *consuming primitive* -- the one
function per subsystem where simulated resource consumption actually
happens -- must route every outcome into a ledger charge,
``Scheduler.note_charge``, or an explicit ``unaccounted_*`` sink.

Two rules, from coarse to fine:

* **CHG201** -- no ledger sink is *reachable* from the primitive at
  all, walking the name-linked call graph.  Resolution over-approximates
  (a call name may match many functions), so a CHG201 hit means the
  subsystem truly has no path to any ledger.
* **CHG202** -- the primitive's own body has a control-flow path that
  consumes and then escapes without a sink.  The walk is
  branch-sensitive over ``if``/``elif``/``else`` (including sinks
  inside the *test* expression, e.g. ``if not accountant.try_charge(...)``),
  treats ``raise`` and falsy ``return``\\ s (``return``, ``return None``,
  ``return False``) as rejection paths that consumed nothing, and uses
  whole-subtree "can sink" semantics inside loops/``try``/``with`` so a
  charge inside an ancestor-walk loop counts.

Each primitive names the resource dimension it consumes, one of those
declared in :mod:`repro.kernel.accounting`.  A primitive is metered at
runtime when the sanitizer's ``DIMENSION_CHECKS`` entry for its
dimension is non-empty; one whose dimension has no runtime checks (no
ledger field, as for ``fd``) must either charge statically or carry a
reasoned baseline entry.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Sequence

from repro.analysis.graph import (
    FunctionInfo,
    ModuleGraph,
    Violation,
    call_name,
)
from repro.kernel.accounting import check_dimension

#: Call names that book consumption into a ledger or declared sink.
SINK_CALLS = frozenset(
    {
        "charge_cpu",
        "charge_disk",
        "charge_memory",
        "charge_net_tx",
        "note_charge",
        "try_charge",
        "uncharge",
        "charge",
    }
)

#: Attribute names whose touch books into an explicit unaccounted sink
#: or the batched pending-charge store that a later flush drains.
SINK_ATTRS = frozenset(
    {
        "unaccounted_us",
        "unaccounted_cpu_us",
        "unaccounted_bytes",
        "_pending_charges",
    }
)


@dataclass(frozen=True)
class ConsumingPrimitive:
    """One function where simulated resource consumption happens."""

    rel: str
    qualname: str
    #: A dimension declared in :data:`repro.kernel.accounting.DIMENSIONS`.
    dimension: str
    description: str

    def __post_init__(self) -> None:
        check_dimension(self.dimension)


#: The charging surface of the tree.  Adding a consuming subsystem
#: means adding a row here -- the cross-check test then forces either
#: runtime checks for its dimension or a reasoned baseline entry.
PRIMITIVES: tuple = (
    ConsumingPrimitive(
        rel="kernel/cpu.py",
        qualname="CPU._account",
        dimension="cpu",
        description="per-slice CPU time booking (sim-time advancement)",
    ),
    ConsumingPrimitive(
        rel="io/device.py",
        qualname="DiskDevice._complete",
        dimension="disk",
        description="disk service completion",
    ),
    ConsumingPrimitive(
        rel="mem/physmem.py",
        qualname="MemoryAccountant.try_charge",
        dimension="memory",
        description="physical-memory admission",
    ),
    ConsumingPrimitive(
        rel="fs/filesystem.py",
        qualname="BufferCache.insert",
        dimension="memory",
        description="buffer-cache residency",
    ),
    ConsumingPrimitive(
        rel="net/tcp.py",
        qualname="TcpStack._input_data",
        dimension="net",
        description="inbound payload admission into socket buffers",
    ),
    ConsumingPrimitive(
        rel="net/tcp.py",
        qualname="TcpStack.transmit_response",
        dimension="net",
        description="outbound byte transmission",
    ),
    ConsumingPrimitive(
        rel="kernel/descriptors.py",
        qualname="DescriptorTable.allocate",
        dimension="fd",
        description="descriptor-slot residency",
    ),
)


# -- sink detection ---------------------------------------------------------


def _walk_no_defs(node: ast.AST):
    """ast.walk, but do not descend into nested function/class defs."""
    stack = list(ast.iter_child_nodes(node))
    while stack:
        child = stack.pop()
        yield child
        if isinstance(
            child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        stack.extend(ast.iter_child_nodes(child))


def _node_sinks(node: ast.AST) -> bool:
    """Does this subtree (sans nested defs) touch a charging sink?"""
    candidates = [node]
    candidates.extend(_walk_no_defs(node))
    for sub in candidates:
        if isinstance(sub, ast.Call) and call_name(sub) in SINK_CALLS:
            return True
        if isinstance(sub, ast.Attribute) and sub.attr in SINK_ATTRS:
            return True
    return False


def function_sinks(fn: FunctionInfo) -> bool:
    """Does the function body contain any direct sink?"""
    return any(_node_sinks(stmt) for stmt in fn.node.body)


# -- CHG201: no sink reachable at all ---------------------------------------


def _reaches_sink(graph: ModuleGraph, start: FunctionInfo) -> bool:
    if start.call_names & SINK_CALLS:
        return True
    for fn in graph.reachable(start):
        if function_sinks(fn):
            return True
    return False


# -- CHG202: a body path escapes without charging ---------------------------


def _exempt_return(stmt: ast.Return) -> bool:
    """Falsy returns are rejection paths: nothing was consumed."""
    if stmt.value is None:
        return True
    return isinstance(stmt.value, ast.Constant) and (
        stmt.value.value is None or stmt.value.value is False
    )


def _uncharged_paths(body: Sequence[ast.stmt]) -> tuple:
    """Scan a statement list for escapes that precede any sink.

    Returns ``(exit_stmts, falls_through_uncovered)``: the ``return``
    statements reached with no sink executed, and whether control can
    run off the end of the list still unsunk.
    """
    exits: list = []
    for stmt in body:
        if isinstance(stmt, ast.Return):
            if not _exempt_return(stmt):
                exits.append(stmt)
            return exits, False
        if isinstance(stmt, ast.Raise):
            return exits, False
        if isinstance(stmt, ast.If):
            if _node_sinks(stmt.test):
                # The sink runs while evaluating the condition, before
                # either branch: everything after is covered.
                return exits, False
            then_exits, then_falls = _uncharged_paths(stmt.body)
            else_exits, else_falls = _uncharged_paths(stmt.orelse)
            exits.extend(then_exits)
            exits.extend(else_exits)
            if not (then_falls or else_falls):
                # Every branch either sank or terminated; any escapes
                # were already collected.
                return exits, False
            if not (then_falls and else_falls):
                # Exactly one branch continues uncovered -- keep
                # scanning the tail for its sink.
                continue
            continue
        if isinstance(
            stmt, (ast.For, ast.While, ast.Try, ast.With, ast.AsyncWith)
        ):
            # Whole-subtree semantics: a charge inside an ancestor-walk
            # loop covers the path (zero-iteration pessimism would flag
            # every ``for ancestor in chain: charge(...)`` idiom).
            if _node_sinks(stmt):
                return exits, False
            for sub in _walk_no_defs(stmt):
                if isinstance(sub, ast.Return) and not _exempt_return(sub):
                    exits.append(sub)
            continue
        if _node_sinks(stmt):
            return exits, False
    return exits, True


def check_charging(
    graph: ModuleGraph, primitives: "Sequence[ConsumingPrimitive] | None" = None
) -> list:
    """Run CHG201/CHG202 over the registered consuming primitives."""
    if primitives is None:
        primitives = PRIMITIVES
    violations: list = []
    for primitive in primitives:
        module = graph.modules.get(primitive.rel)
        if module is None:
            continue  # partial graphs (tests) only check what they load
        fn = graph.function(primitive.rel, primitive.qualname)
        if fn is None:
            # The registry names a function the tree no longer has: the
            # charging surface and the registry have drifted apart.
            violations.append(
                module.violation(
                    module.tree,
                    "CHG201",
                    f"registered consuming primitive "
                    f"{primitive.qualname} ({primitive.dimension}) not "
                    "found; update repro.analysis.charging.PRIMITIVES",
                )
            )
            continue
        if not _reaches_sink(graph, fn):
            violations.append(
                module.violation(
                    fn.node,
                    "CHG201",
                    f"{primitive.qualname} consumes "
                    f"{primitive.dimension} ({primitive.description}) "
                    "but no ledger charge, note_charge, or unaccounted "
                    "sink is reachable from it",
                )
            )
            continue  # the body check would only repeat the news
        exits, falls = _uncharged_paths(fn.node.body)
        for stmt in exits:
            violations.append(
                module.violation(
                    stmt,
                    "CHG202",
                    f"{primitive.qualname} path returns without booking "
                    f"the consumed {primitive.dimension} into a ledger "
                    "or unaccounted sink",
                )
            )
        if falls:
            violations.append(
                module.violation(
                    fn.node,
                    "CHG202",
                    f"{primitive.qualname} can fall off the end without "
                    f"booking the consumed {primitive.dimension} into a "
                    "ledger or unaccounted sink",
                )
            )
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations
