"""Static/dynamic agreement on the charging surface.  Both halves
derive from the dimensions declared in ``repro.kernel.accounting``: a
consuming primitive the CHG2xx pass registers is metered when the
sanitizer has runtime checks for its dimension, and otherwise must
carry a reasoned baseline entry admitting the dimension is unmetered."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.analysis import sanitizer
from repro.analysis.charging import PRIMITIVES, ConsumingPrimitive
from repro.analysis.analyze import ANALYZE_BASELINE_PATH
from repro.analysis.graph import load_baseline_entries
from repro.kernel.accounting import DIMENSIONS


def _sanitizer_check_ids() -> set:
    """Every check id the sanitizer can actually emit, from its AST:
    the first argument of each _violate(...) / _compare(...) call."""
    source = Path(sanitizer.__file__).read_text(encoding="utf-8")
    ids: set = set()
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(
            func, "id", None
        )
        if name in ("_violate", "_compare") and node.args:
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(
                first.value, str
            ):
                ids.add(first.value)
    return ids


def test_dimension_checks_name_only_real_sanitizer_checks():
    emitted = _sanitizer_check_ids()
    assert emitted, "failed to extract check ids from the sanitizer"
    for dimension, checks in sanitizer.DIMENSION_CHECKS.items():
        for check in checks:
            assert check in emitted, (
                f"DIMENSION_CHECKS[{dimension!r}] names {check!r}, "
                "which the sanitizer never emits"
            )


def test_dimension_checks_derive_from_the_declared_dimensions():
    assert list(sanitizer.DIMENSION_CHECKS) == list(DIMENSIONS)
    for dimension, names in DIMENSIONS.items():
        checks = sanitizer.DIMENSION_CHECKS[dimension]
        assert ("ledger-integrity" in checks) == bool(names), dimension


def test_misspelled_primitive_dimension_raises():
    with pytest.raises(ValueError, match="unknown resource dimension"):
        ConsumingPrimitive("dev.py", "Device.consume", "disc", "typo")


def test_unmetered_primitives_carry_a_reasoned_baseline_entry():
    entries = load_baseline_entries(ANALYZE_BASELINE_PATH)
    for primitive in PRIMITIVES:
        if sanitizer.DIMENSION_CHECKS[primitive.dimension]:
            continue
        matching = [
            e
            for e in entries
            if e["path"] == primitive.rel
            and e["rule"].startswith("CHG")
            and str(e.get("reason", "")).strip()
        ]
        assert matching, (
            f"{primitive.qualname} has no runtime sanitizer coverage "
            f"({primitive.dimension}); it must charge statically or be "
            "baselined with a written reason"
        )
