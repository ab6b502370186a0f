"""REP005 — telemetry naming discipline.

Operations dashboards and the golden telemetry reports key on span
and counter *names*.  A typo'd or ad-hoc name silently forks a metric,
so every recording call must:

- pass the name as a **string literal** (the conditional-of-literals
  idiom ``count("a" if warm else "b")`` counts — both arms are
  checked), never a computed expression, and
- use a name registered in :mod:`repro.telemetry`'s
  ``KNOWN_SPANS`` / ``KNOWN_COUNTERS`` registry, which is the single
  source of truth the docs and dashboards are generated from.

One dynamic shape is sanctioned: an f-string whose literal head lies in
a registered *prefix family* (``KNOWN_COUNTER_PREFIXES``), e.g. the
per-solver ``f"solver_attempts.{name}"`` counters the campaign report
aggregates.  Families are themselves registry entries, so the rule
stays machine-checkable.

The checker resolves call sites through the import map (the
``from repro import telemetry as tm`` idiom) and additionally covers
method calls on conventional collector names (``tm``, ``telemetry``),
which is how :class:`repro.telemetry.Telemetry` instances are used.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.checkers.common import (
    ImportMap,
    attribute_chain,
    in_module,
    string_literals,
)
from repro.analysis.engine import Finding, SourceFile
from repro.telemetry import (
    KNOWN_COUNTER_PREFIXES,
    KNOWN_COUNTERS,
    KNOWN_SPANS,
)

RULE_ID = "REP005"

#: Recording function → (its name registry, its dynamic-family prefixes).
RECORDING_FUNCTIONS: dict[str, tuple[frozenset[str], frozenset[str]]] = {
    "span": (KNOWN_SPANS, frozenset()),
    "record_span": (KNOWN_SPANS, frozenset()),
    "count": (KNOWN_COUNTERS, KNOWN_COUNTER_PREFIXES),
}

REGISTRY_LABEL = {
    id(KNOWN_SPANS): "KNOWN_SPANS",
    id(KNOWN_COUNTERS): "KNOWN_COUNTERS",
}

#: Conventional local names for a telemetry collector (module alias or
#: Telemetry instance); method calls on them are checked too.
COLLECTOR_NAMES = frozenset({"tm", "telemetry"})


def _matches_prefix_family(
    node: ast.expr, prefixes: frozenset[str]
) -> bool:
    """Is this an f-string whose literal head is a registered family?

    The one sanctioned dynamic-name shape: ``f"family.{tail}"`` where
    ``family.`` is listed in the registry's prefix families.
    """
    if not isinstance(node, ast.JoinedStr) or not node.values:
        return False
    head = node.values[0]
    if not (
        isinstance(head, ast.Constant) and isinstance(head.value, str)
    ):
        return False
    return any(head.value.startswith(prefix) for prefix in prefixes)


def _recording_target(
    func: ast.expr, imports: ImportMap
) -> str | None:
    """The recording-function name this call resolves to, if any."""
    if isinstance(func, ast.Name):
        origin = imports.resolve(func.id)
        if origin is not None and origin.startswith("repro.telemetry."):
            name = origin.rsplit(".", 1)[1]
            return name if name in RECORDING_FUNCTIONS else None
        return None
    chain = attribute_chain(func)
    if chain is None or len(chain) < 2:
        return None
    method = chain[-1]
    if method not in RECORDING_FUNCTIONS:
        return None
    base = chain[0]
    origin = imports.resolve(base)
    if origin == "repro.telemetry" or base in COLLECTOR_NAMES:
        return method
    return None


class TelemetryNameChecker:
    """Require literal, registered telemetry names at every call site."""

    rule_id = RULE_ID
    title = "telemetry span/counter names from the registry"

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if not in_module(source.module, "repro"):
            return
        if source.module == "repro.telemetry":
            return  # the registry/recorder itself
        imports = ImportMap(source.tree)
        for node in ast.walk(source.tree):
            if not isinstance(node, ast.Call):
                continue
            method = _recording_target(node.func, imports)
            if method is None or not node.args:
                continue
            registry, prefixes = RECORDING_FUNCTIONS[method]
            literals = string_literals(node.args[0])
            if literals is None:
                if _matches_prefix_family(node.args[0], prefixes):
                    continue
                yield source.finding(
                    self.rule_id, node,
                    f"telemetry {method}() name must be a string literal "
                    "(or a conditional of literals, or an f-string in a "
                    "registered dynamic family) so dashboards can be "
                    "generated from the registry",
                )
                continue
            for name in literals:
                if name not in registry and not any(
                    name.startswith(prefix) for prefix in prefixes
                ):
                    yield source.finding(
                        self.rule_id, node,
                        f"telemetry name {name!r} is not registered in "
                        f"repro.telemetry.{REGISTRY_LABEL[id(registry)]}; "
                        "register it there (the registry is the single "
                        "source of truth)",
                    )
