"""REP002 — the sanctioned import graph, as a declarative table.

The architecture is a layered stack: foundation modules (``errors``,
``telemetry``, ``config``) at the bottom, then the ``sparse`` substrate,
the numeric layers (``solvers``, ``fpga``, ``core``), the orchestration
layers (``campaign``, ``parallel``, ``serve``), and the entry points
(``cli``, ``__main__``) on top.  :data:`ALLOWED_DEPENDENCIES` spells
out, per top-level unit, exactly which other units it may import; the
checker resolves every import statement (including the
``from repro import telemetry as tm`` idiom) against it.

On top of the per-unit table, :data:`DENIED_MODULE_PREFIXES` carries
module-granular bans that the unit table cannot express:

- nothing but ``cli`` and ``__main__`` imports ``repro.cli``,
- ``repro.serve.cluster`` is only importable from ``serve`` itself,
  the ``faults`` chaos harness, the ``dse`` explorer and the ``cli``
  entry point,
- neither ``repro.serve`` nor ``repro.dse`` reaches into
  ``repro.parallel`` submodules (``parallel.engine`` internals); they
  must use the ``repro.parallel`` facade, which re-exports the
  supported surface,
- nothing imports the root facade ``repro`` itself except the entry
  points (everything else names its dependency explicitly).

Known sanctioned cycles (``core ↔ fpga`` via the cost model,
``campaign ↔ parallel`` via lazy worker imports) appear as mutual
entries — the table documents them instead of pretending they do not
exist.
"""

from __future__ import annotations

import ast
from typing import Iterator, Mapping

from repro.analysis.checkers.common import REPRO_TOP_MODULES
from repro.analysis.engine import Finding, SourceFile

RULE_ID = "REP002"

#: Pseudo-unit names for the package's own top-level files.
ROOT_FACADE = "<repro>"

#: Per top-level unit: the units it is allowed to import.  Importing
#: within one's own unit is always allowed and not listed.
ALLOWED_DEPENDENCIES: Mapping[str, frozenset[str]] = {
    # -- foundation ---------------------------------------------------
    "errors": frozenset(),
    "telemetry": frozenset(),
    "config": frozenset({"errors"}),
    # -- numeric substrate and models ---------------------------------
    "sparse": frozenset({"errors", "config", "telemetry"}),
    "gpu": frozenset({"errors", "sparse"}),
    # placement prices one micro-batch on each device class: it wraps
    # the gpu SpMV model and carries the FPGA-side constants itself.
    "placement": frozenset({"errors", "gpu"}),
    "solvers": frozenset({"errors", "config", "telemetry", "sparse"}),
    "datasets": frozenset({"errors", "sparse"}),
    "metrics": frozenset({"errors", "fpga"}),
    # core ↔ fpga is a sanctioned cycle: the cost model prices core's
    # reconfiguration plans, core's design space consults the cost model
    # (broken at runtime by lazy imports).
    "core": frozenset(
        {"errors", "config", "telemetry", "sparse", "solvers", "fpga"}
    ),
    "fpga": frozenset({
        "errors", "config", "telemetry", "sparse", "solvers", "gpu",
        "metrics", "core",
    }),
    "baselines": frozenset(
        {"errors", "config", "sparse", "solvers", "fpga"}
    ),
    "analysis": frozenset({"errors", "telemetry", "sparse", "solvers"}),
    # -- orchestration ------------------------------------------------
    # campaign ↔ parallel is a sanctioned cycle: workers lazily import
    # campaign's entry builders.
    "campaign": frozenset({
        "errors", "config", "telemetry", "sparse", "datasets", "core",
        "fpga", "metrics", "parallel",
    }),
    "parallel": frozenset(
        {"errors", "config", "telemetry", "datasets", "campaign"}
    ),
    "serve": frozenset({
        "errors", "config", "telemetry", "sparse", "datasets", "core",
        "fpga", "campaign", "parallel", "placement",
    }),
    # faults sits beside cli at the top of the stack: it injects into
    # the three recovery surfaces (parallel pool, serve, core attempt
    # loop), so it may depend on all of them but nothing depends on it
    # except the cli entry point.
    "faults": frozenset({
        "errors", "config", "telemetry", "sparse", "solvers", "datasets",
        "core", "fpga", "campaign", "parallel", "serve",
    }),
    # dse closes the deployment loop: it drives the serving simulator
    # and prices the result with the fpga models, but nothing below the
    # cli depends on it.
    "dse": frozenset({
        "errors", "config", "telemetry", "datasets", "core", "fpga",
        "parallel", "serve", "placement",
    }),
    "experiments": frozenset({
        "errors", "config", "telemetry", "sparse", "solvers", "datasets",
        "core", "fpga", "gpu", "metrics", "baselines",
    }),
    # -- entry points -------------------------------------------------
    "cli": frozenset({
        "errors", "config", "telemetry", "sparse", "solvers", "datasets",
        "core", "fpga", "gpu", "metrics", "baselines", "analysis",
        "campaign", "parallel", "serve", "faults", "experiments", "dse",
        "placement", ROOT_FACADE,
    }),
    "__main__": frozenset({"cli"}),
    ROOT_FACADE: frozenset({
        "errors", "config", "sparse", "solvers", "datasets", "core",
        "campaign",
    }),
}

#: (source-unit, banned module prefix, reason).  ``None`` as the source
#: unit means "every unit except those in the exempt set".
DENIED_MODULE_PREFIXES: tuple[tuple[str | None, str, str], ...] = (
    (
        "serve", "repro.parallel.",
        "repro.serve must import the repro.parallel facade, not "
        "parallel submodule internals",
    ),
    (
        "dse", "repro.parallel.",
        "repro.dse must import the repro.parallel facade, not "
        "parallel submodule internals",
    ),
)

#: Module prefixes only importable from these units.
RESTRICTED_TARGETS: Mapping[str, frozenset[str]] = {
    "repro.cli": frozenset({"cli", "__main__"}),
    # The cluster package is the serving tier's distributed layer: the
    # rest of repro.serve may build on it, the chaos harness injects
    # into it, and the cli drives it — but the numeric and campaign
    # layers below serving must never reach up into cluster internals.
    "repro.serve.cluster": frozenset({"serve", "faults", "cli", "dse"}),
}


def cycle_path(source_unit: str, target_unit: str) -> list[str] | None:
    """Declared-dependency chain ``target_unit → … → source_unit``.

    When an undeclared edge ``source_unit → target_unit`` would close a
    cycle through the *sanctioned* graph, the chain names every module
    on the loop — the actionable fix is breaking one of those declared
    edges (or a lazy import), and the offending edge alone doesn't say
    which.  Returns ``None`` when no declared path exists (the edge is
    merely unsanctioned, not cyclic).  BFS, so the shortest cycle wins;
    neighbor order is sorted for deterministic messages.
    """
    if source_unit == target_unit:
        return [target_unit]
    queue: list[list[str]] = [[target_unit]]
    visited = {target_unit}
    while queue:
        path = queue.pop(0)
        for neighbor in sorted(ALLOWED_DEPENDENCIES.get(path[-1], ())):
            if neighbor == source_unit:
                return path + [neighbor]
            if neighbor not in visited:
                visited.add(neighbor)
                queue.append(path + [neighbor])
    return None


def unit_of(module: str) -> str | None:
    """Top-level unit of a dotted repro module name."""
    if module == "repro" or not module.startswith("repro."):
        return ROOT_FACADE if module == "repro" else None
    head = module.split(".")[1]
    if head in ("__init__", "__main__"):
        return head
    if head in ALLOWED_DEPENDENCIES:
        return head
    return head  # unknown unit: surfaced as an unlisted-unit finding


def _import_targets(
    node: ast.stmt, source_module: str | None
) -> Iterator[tuple[str, ast.stmt]]:
    """Resolve one import statement to repro module targets.

    ``from repro import telemetry`` yields ``repro.telemetry`` (a
    submodule), while ``from repro import Acamar`` yields ``repro`` (an
    attribute of the root facade); the distinction uses the known
    top-level module set.
    """
    if isinstance(node, ast.Import):
        for alias in node.names:
            if alias.name == "repro" or alias.name.startswith("repro."):
                yield alias.name, node
    elif isinstance(node, ast.ImportFrom):
        if node.level:
            # Relative imports obscure the graph; resolve against the
            # current package when possible.
            if source_module is None:
                return
            parts = source_module.split(".")
            if node.level >= len(parts):
                return
            base = ".".join(parts[: len(parts) - node.level])
            module = f"{base}.{node.module}" if node.module else base
            yield module, node
            return
        module = node.module or ""
        if module == "repro":
            for alias in node.names:
                if alias.name in REPRO_TOP_MODULES:
                    yield f"repro.{alias.name}", node
                else:
                    yield "repro", node
        elif module.startswith("repro."):
            yield module, node


class LayeringChecker:
    """Enforce the declarative import-layering table."""

    rule_id = RULE_ID
    title = "sanctioned import graph"

    def check(self, source: SourceFile) -> Iterator[Finding]:
        if source.module is None or not source.module.startswith("repro"):
            return
        if source.module == "repro":
            source_unit = ROOT_FACADE
        else:
            source_unit = unit_of(source.module)
            if source.module == "repro.__main__":
                source_unit = "__main__"
        if source_unit is None:
            return
        allowed = ALLOWED_DEPENDENCIES.get(source_unit)
        for node in ast.walk(source.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target, stmt in _import_targets(node, source.module):
                yield from self._check_edge(
                    source, stmt, source_unit, allowed, target
                )

    def _check_edge(
        self,
        source: SourceFile,
        node: ast.stmt,
        source_unit: str,
        allowed: frozenset[str] | None,
        target: str,
    ) -> Iterator[Finding]:
        for restricted, importers in RESTRICTED_TARGETS.items():
            if (
                (target == restricted or target.startswith(restricted + "."))
                and source_unit not in importers
            ):
                yield source.finding(
                    self.rule_id, node,
                    f"{source.module} imports {target}: only "
                    f"{sorted(importers)} may import {restricted}",
                )
                return
        for deny_unit, prefix, reason in DENIED_MODULE_PREFIXES:
            if (deny_unit is None or deny_unit == source_unit) and (
                target.startswith(prefix)
            ):
                yield source.finding(
                    self.rule_id, node,
                    f"{source.module} imports {target}: {reason}",
                )
                return
        target_unit = unit_of(target)
        if target_unit is None or target_unit == source_unit:
            return
        if allowed is None:
            yield source.finding(
                self.rule_id, node,
                f"unit {source_unit!r} is not in the layering table; add "
                "it to ALLOWED_DEPENDENCIES with its sanctioned imports",
            )
            return
        if target_unit not in allowed:
            label = "the repro root facade" if (
                target_unit == ROOT_FACADE
            ) else f"unit {target_unit!r}"
            message = (
                f"{source.module} imports {target}: unit "
                f"{source_unit!r} may not depend on {label} "
                "(see ALLOWED_DEPENDENCIES)"
            )
            loop = cycle_path(source_unit, target_unit)
            if loop is not None:
                chain = " → ".join([source_unit, *loop])
                message += (
                    f"; this edge closes a dependency cycle through the "
                    f"sanctioned graph: {chain} — break one of those "
                    "declared edges or make this import lazy"
                )
            yield source.finding(self.rule_id, node, message)
