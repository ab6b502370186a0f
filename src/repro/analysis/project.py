"""The whole-program analysis layer behind ``repro lint``.

The file-scoped checkers (REP001–REP006) see one AST at a time, so
cross-module contract violations — a registered telemetry counter
nobody emits, an unpicklable object handed across the ``run_sharded``
worker boundary, a wall-clock value laundered into the deterministic
core through a helper re-export — are invisible to them.  This module
closes that gap with a two-phase design, run as one serial pass:

**Phase 1 (per file).**  Each file is parsed once; the file-scoped
checkers run over the tree, and a *facts record* is extracted: emitted
telemetry names, module-level definitions, import bindings,
``run_sharded`` boundary calls, CLI return/exit shapes,
determinism-tainted exports, and — for ``repro.telemetry`` itself — the
literal name registry.

**Phase 2 (whole program).**  The facts are assembled into a
:class:`ProjectIndex` — a module name → facts map with qualified-name
resolution — and the project-scoped checkers (REP007–REP010 in
:mod:`repro.analysis.checkers`) run over it.

The final report is fully sorted, so its bytes depend only on the
linted tree and the rule selection.
"""

from __future__ import annotations

import ast
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Protocol, Sequence

from repro.analysis.checkers.common import ImportMap, qualified_name
from repro.analysis.engine import (
    Finding,
    LintReport,
    SourceFile,
    iter_python_files,
    load_source,
)

#: Qualified names that mark a call as crossing the worker boundary.
BOUNDARY_FUNCTIONS = frozenset({
    "repro.parallel.run_sharded",
    "repro.parallel.engine.run_sharded",
})

#: ``run_sharded`` keyword arguments that never cross into a worker
#: process (the executor factory runs parent-side), so REP008 must not
#: inspect them.  ``work_fn`` is keyword-only and handled separately.
_PARENT_SIDE_KWARGS = frozenset({"executor_factory"})

#: Registry constants parsed out of ``repro.telemetry``'s module body.
_REGISTRY_NAMES = {
    "KNOWN_SPANS": "spans",
    "KNOWN_COUNTERS": "counters",
    "KNOWN_DISTRIBUTIONS": "distributions",
    "KNOWN_COUNTER_PREFIXES": "prefixes",
}

#: Recording method → the emission kind it feeds (mirrors REP005).
_EMISSION_KINDS = {
    "span": "spans",
    "record_span": "spans",
    "count": "counters",
    "observe": "distributions",
}

#: Wall-clock and entropy reads whose values must not leak into the
#: deterministic core through helper modules (REP010).  Includes the
#: ``perf_counter`` pair REP001 tolerates for in-place benchmarking:
#: *returning* such a value across a module boundary is the laundering
#: hazard this rule exists for.
CLOCK_AND_ENTROPY_CALLS = frozenset({
    "time.time", "time.time_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.datetime.now", "datetime.datetime.today",
    "datetime.datetime.utcnow", "datetime.date.today",
    "os.urandom", "os.getrandom",
    "uuid.uuid1", "uuid.uuid4",
})

#: Module roots whose re-export from a helper is itself a taint.
CLOCK_MODULE_ROOTS = ("time", "datetime", "secrets")

#: Constructors whose module-level instances are shared mutable RNG
#: streams (order-of-consumption nondeterminism even when seeded).
RNG_CONSTRUCTORS = frozenset({
    "random.Random",
    "numpy.random.default_rng",
    "numpy.random.Generator",
})

#: Modules whose facts record CLI return/exit shapes for REP009.
EXIT_CONTRACT_MODULES = frozenset({"repro.cli", "repro.__main__"})


class ProjectChecker(Protocol):
    """One cross-module rule: inspect the whole index, yield findings."""

    rule_id: str
    title: str

    def check_project(self, index: "ProjectIndex") -> Iterator[Finding]:
        """Yield every violation of this rule across the project."""
        ...  # pragma: no cover — protocol body


# -- phase 1: per-file fact extraction ----------------------------------


def _scope_names(fn: ast.AST) -> tuple[set[str], set[str]]:
    """(parameter names, assigned names) of one function scope."""
    params: set[str] = set()
    if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = fn.args
        for arg in (
            *args.posonlyargs, *args.args, *args.kwonlyargs,
            *filter(None, (args.vararg, args.kwarg)),
        ):
            params.add(arg.arg)
    assigned: set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    assigned.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.value is not None:
                assigned.add(node.target.id)
    return params, assigned


def _local_assignments(fn: ast.AST, name: str) -> list[ast.expr]:
    """Every value assigned to ``name`` inside ``fn`` (any order)."""
    values: list[ast.expr] = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            values.append(node.value)
        elif (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and node.target.id == name
            and node.value is not None
        ):
            values.append(node.value)
    return values


def _classify_work_fn(
    expr: ast.expr,
    scopes: Sequence[ast.AST],
    imports: ImportMap,
    depth: int = 0,
) -> tuple[list[list[object]], list[str], list[str]]:
    """Classify a ``work_fn`` argument expression.

    Returns ``(bad, local_candidates, qualified_candidates)`` where
    ``bad`` entries are definite ``[line, reason]`` violations, local
    candidates are module-scope names to verify against this module's
    facts, and qualified candidates are dotted ``repro.*`` names to
    verify cross-module.
    """
    line = getattr(expr, "lineno", 1)
    if depth > 5:
        return (
            [[line, "work function resolution chain is too deep to prove "
                    "module-level"]],
            [], [],
        )
    if isinstance(expr, ast.Lambda):
        return (
            [[line, "a lambda cannot be pickled across the worker "
                    "boundary; define a module-level function"]],
            [], [],
        )
    if isinstance(expr, ast.IfExp):
        bad_b, loc_b, qual_b = _classify_work_fn(
            expr.body, scopes, imports, depth + 1
        )
        bad_o, loc_o, qual_o = _classify_work_fn(
            expr.orelse, scopes, imports, depth + 1
        )
        return bad_b + bad_o, loc_b + loc_o, qual_b + qual_o
    if isinstance(expr, ast.Call):
        return (
            [[line, "the result of a call expression is not provably a "
                    "picklable module-level function"]],
            [], [],
        )
    if isinstance(expr, ast.Name):
        name = expr.id
        for scope in reversed(list(scopes)):
            params, assigned = _scope_names(scope)
            if name in assigned:
                bad: list[list[object]] = []
                local: list[str] = []
                qual: list[str] = []
                for value in _local_assignments(scope, name):
                    b, lo, q = _classify_work_fn(
                        value, scopes, imports, depth + 1
                    )
                    bad += b
                    local += lo
                    qual += q
                return bad, local, qual
            if name in params:
                return (
                    [[line, f"work function flows from enclosing-function "
                            f"parameter {name!r} and cannot be proven "
                            "module-level; pass a top-level function"]],
                    [], [],
                )
        return [], [name], []
    chain_q = qualified_name(expr, imports)
    if isinstance(expr, ast.Attribute) and chain_q is not None:
        base = chain_q.split(".", 1)[0]
        if chain_q.startswith("repro."):
            return [], [], [chain_q]
        if imports.resolve(base) is not None or base in sys.stdlib_module_names:
            return [], [], []  # attribute of an imported non-repro module
        return (
            [[line, f"attribute reference {chain_q!r} is not a module-level "
                    "function; the worker boundary pickles by qualified "
                    "name"]],
            [], [],
        )
    return (
        [[line, "work function expression is not provably a module-level "
                "callable"]],
        [], [],
    )


class _BoundaryVisitor(ast.NodeVisitor):
    """Collect every ``run_sharded`` call with its enclosing scopes."""

    def __init__(self, imports: ImportMap) -> None:
        self.imports = imports
        self.scopes: list[ast.AST] = []
        self.calls: list[dict[str, Any]] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scopes.append(node)
        self.generic_visit(node)
        self.scopes.pop()

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self.scopes.append(node)
        self.generic_visit(node)
        self.scopes.pop()

    def visit_Call(self, node: ast.Call) -> None:
        target = qualified_name(node.func, self.imports)
        if target in BOUNDARY_FUNCTIONS:
            self.calls.append(self._record(node))
        self.generic_visit(node)

    def _record(self, node: ast.Call) -> dict[str, Any]:
        work_expr: ast.expr | None = None
        crossing_args: list[ast.expr] = list(node.args)
        for kw in node.keywords:
            if kw.arg == "work_fn":
                work_expr = kw.value
            elif kw.arg not in _PARENT_SIDE_KWARGS:
                crossing_args.append(kw.value)
        bad: list[list[object]] = []
        local: list[str] = []
        qual: list[str] = []
        if work_expr is not None:
            bad, local, qual = _classify_work_fn(
                work_expr, self.scopes, self.imports
            )
        args_bad: list[list[object]] = []
        for arg in crossing_args:
            for sub in ast.walk(arg):
                if isinstance(sub, ast.Lambda):
                    args_bad.append([
                        sub.lineno,
                        "a lambda flows into the worker boundary and "
                        "cannot be pickled",
                    ])
                elif (
                    isinstance(sub, ast.Call)
                    and isinstance(sub.func, ast.Name)
                    and sub.func.id == "open"
                ):
                    args_bad.append([
                        sub.lineno,
                        "an open() handle flows into the worker boundary "
                        "and cannot be pickled",
                    ])
        return {
            "line": node.lineno,
            "bad": sorted(bad, key=repr),
            "local": sorted(set(local)),
            "qualified": sorted(set(qual)),
            "args_bad": sorted(args_bad, key=repr),
        }


def _definitions(tree: ast.Module) -> dict[str, list[str]]:
    """Module-level vs. nested definition names."""
    top_defs: set[str] = set()
    top_assigns: set[str] = set()
    lambda_assigns: set[str] = set()
    for node in tree.body:
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            top_defs.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if isinstance(node.value, ast.Lambda):
                        lambda_assigns.add(target.id)
                    else:
                        top_assigns.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.value is not None:
                if isinstance(node.value, ast.Lambda):
                    lambda_assigns.add(node.target.id)
                else:
                    top_assigns.add(node.target.id)
    nested: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name not in top_defs:
                nested.add(node.name)
    return {
        "top": sorted(top_defs),
        "assigns": sorted(top_assigns),
        "lambdas": sorted(lambda_assigns),
        "nested": sorted(nested - top_defs),
    }


def _emissions(source: SourceFile, imports: ImportMap) -> dict[str, Any]:
    """Every telemetry name this module emits, by instrument kind."""
    from repro.analysis.checkers.common import string_literals
    from repro.analysis.checkers.telemetry_names import _recording_target

    emitted: dict[str, dict[str, list[int]]] = {
        "spans": {}, "counters": {}, "distributions": {},
    }
    heads: dict[str, list[int]] = {}
    for node in ast.walk(source.tree):
        if not isinstance(node, ast.Call) or not node.args:
            continue
        method = _recording_target(node.func, imports)
        if method is None:
            continue
        kind = _EMISSION_KINDS[method]
        literals = string_literals(node.args[0])
        if literals is not None:
            for name in literals:
                emitted[kind].setdefault(name, []).append(node.lineno)
        elif kind == "counters" and isinstance(node.args[0], ast.JoinedStr):
            values = node.args[0].values
            if values and isinstance(values[0], ast.Constant) and isinstance(
                values[0].value, str
            ):
                heads.setdefault(values[0].value, []).append(node.lineno)
    return {**emitted, "counter_heads": heads}


def _registry(tree: ast.Module) -> dict[str, dict[str, int]]:
    """Literal registry contents of the ``repro.telemetry`` module."""
    registry: dict[str, dict[str, int]] = {
        kind: {} for kind in _REGISTRY_NAMES.values()
    }
    for node in tree.body:
        if not isinstance(node, ast.Assign) or len(node.targets) != 1:
            continue
        target = node.targets[0]
        if not isinstance(target, ast.Name):
            continue
        kind = _REGISTRY_NAMES.get(target.id)
        if kind is None:
            continue
        value = node.value
        if isinstance(value, ast.Call) and value.args:
            value = value.args[0]
        if isinstance(value, (ast.Set, ast.List, ast.Tuple)):
            for element in value.elts:
                if isinstance(element, ast.Constant) and isinstance(
                    element.value, str
                ):
                    registry[kind][element.value] = element.lineno
    return registry


def _from_imports(tree: ast.Module) -> list[list[object]]:
    """Absolute from-imports: ``[module, name, line, is_module_level]``."""
    top_level = set(tree.body)
    records: list[tuple[str, str, int, bool]] = []
    for node in ast.walk(tree):
        if (
            not isinstance(node, ast.ImportFrom)
            or node.level
            or not node.module
        ):
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            records.append(
                (node.module, alias.name, node.lineno, node in top_level)
            )
    records.sort()
    return [list(record) for record in records]


def _tainted_exports(
    source: SourceFile, imports: ImportMap
) -> dict[str, str]:
    """Module-level names that carry wall-clock/entropy/shared-RNG taint."""
    if source.module == "repro.telemetry":
        return {}  # the sanctioned timing boundary
    tainted: dict[str, str] = {}
    for node in source.tree.body:
        if isinstance(node, ast.ImportFrom) and node.module and not node.level:
            root = node.module.split(".")[0]
            if root in CLOCK_MODULE_ROOTS:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    tainted[local] = (
                        f"re-export of {node.module}.{alias.name} "
                        "(wall-clock/entropy source)"
                    )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target]
            )
            value = node.value
            if value is None:
                continue
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            if not names:
                continue
            alias_q = qualified_name(value, imports)
            reason: str | None = None
            if alias_q is not None and (
                alias_q in CLOCK_AND_ENTROPY_CALLS
                or alias_q.split(".")[0] in CLOCK_MODULE_ROOTS
            ):
                reason = f"alias of {alias_q} (wall-clock/entropy source)"
            elif isinstance(value, ast.Call):
                func_q = qualified_name(value.func, imports)
                if func_q in RNG_CONSTRUCTORS:
                    reason = (
                        f"module-level RNG instance ({func_q}); a shared "
                        "stream makes results depend on consumption order"
                    )
                elif func_q in CLOCK_AND_ENTROPY_CALLS:
                    reason = f"value captured from {func_q}() at import time"
            if reason is not None:
                for name in names:
                    tainted[name] = reason
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                func_q = qualified_name(sub.func, imports)
                if func_q is None:
                    continue
                if func_q in CLOCK_AND_ENTROPY_CALLS or func_q.startswith(
                    "secrets."
                ):
                    tainted[node.name] = (
                        f"calls {func_q}() internally, so its results "
                        "embed wall-clock/entropy state"
                    )
                    break
    return tainted


def _shape_of(
    node: ast.expr | None, imports: ImportMap, depth: int = 0
) -> list[dict[str, Any]]:
    """Exit-status shapes an expression can evaluate to (REP009)."""
    line = getattr(node, "lineno", 1) if node is not None else 1
    if node is None or (
        isinstance(node, ast.Constant) and node.value is None
    ):
        return [{"kind": "none", "line": line}]
    if isinstance(node, ast.Constant) and isinstance(node.value, int):
        return [{"kind": "int", "value": int(node.value), "line": line}]
    if isinstance(node, ast.IfExp) and depth <= 5:
        return (
            _shape_of(node.body, imports, depth + 1)
            + _shape_of(node.orelse, imports, depth + 1)
        )
    if isinstance(node, ast.Call):
        target = (
            node.func.id if isinstance(node.func, ast.Name)
            else qualified_name(node.func, imports)
        )
        if target is not None:
            return [{"kind": "call", "target": target, "line": line}]
    return [{"kind": "unknown", "line": line}]


def _returns_in(fn: ast.AST) -> list[ast.Return]:
    """Return statements belonging to ``fn`` itself (not nested defs)."""
    returns: list[ast.Return] = []
    body = getattr(fn, "body", [])
    stack: list[ast.AST] = list(body)
    while stack:
        node = stack.pop()
        if isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            continue
        if isinstance(node, ast.Return):
            returns.append(node)
        stack.extend(ast.iter_child_nodes(node))
    return sorted(returns, key=lambda r: r.lineno)


def _exit_facts(
    source: SourceFile, imports: ImportMap
) -> dict[str, Any]:
    """Return/exit shapes of a CLI entry module (REP009)."""
    functions: dict[str, list[dict[str, Any]]] = {}
    for node in source.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            shapes: list[dict[str, Any]] = []
            for ret in _returns_in(node):
                shapes.extend(_shape_of(ret.value, imports))
            functions[node.name] = shapes
    raises: list[dict[str, Any]] = []

    def record_exits(scope: ast.AST, owner: str) -> None:
        for sub in ast.walk(scope):
            if isinstance(sub, ast.Call):
                target = qualified_name(sub.func, imports)
                if target == "sys.exit":
                    arg = sub.args[0] if sub.args else None
                    for shape in (
                        _shape_of(arg, imports) if arg is not None
                        else [{"kind": "int", "value": 0, "line": sub.lineno}]
                    ):
                        raises.append({"fn": owner, "shape": shape})
            elif isinstance(sub, ast.Raise) and isinstance(
                sub.exc, ast.Call
            ):
                exc_name = qualified_name(sub.exc.func, imports)
                if exc_name == "SystemExit":
                    arg = sub.exc.args[0] if sub.exc.args else None
                    for shape in (
                        _shape_of(arg, imports) if arg is not None
                        else [{"kind": "int", "value": 0, "line": sub.lineno}]
                    ):
                        raises.append({"fn": owner, "shape": shape})

    for node in source.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            record_exits(node, node.name)
        else:
            record_exits(node, "<module>")
    raises.sort(key=lambda r: (int(r["shape"]["line"]), str(r["fn"])))
    return {"functions": functions, "raises": raises}


def extract_facts(source: SourceFile) -> dict[str, Any]:
    """The per-file facts record phase 2 consumes."""
    imports = ImportMap(source.tree)
    visitor = _BoundaryVisitor(imports)
    visitor.visit(source.tree)
    facts: dict[str, Any] = {
        "module": source.module,
        "path": source.display_path,
        "defs": _definitions(source.tree),
        "bindings": dict(sorted(imports.bindings.items())),
        "from_imports": _from_imports(source.tree),
        "emits": _emissions(source, imports),
        "boundary_calls": sorted(
            visitor.calls, key=lambda c: int(c["line"])
        ),
        "tainted": dict(sorted(_tainted_exports(source, imports).items())),
        "registry": (
            _registry(source.tree)
            if source.module == "repro.telemetry" else None
        ),
        "exits": (
            _exit_facts(source, imports)
            if source.module in EXIT_CONTRACT_MODULES else None
        ),
    }
    return facts


# -- the project index --------------------------------------------------


@dataclass
class ProjectIndex:
    """Module name → facts, with qualified-name resolution helpers."""

    modules: dict[str, dict[str, Any]] = field(default_factory=dict)

    @classmethod
    def build(cls, facts_list: Sequence[dict[str, Any]]) -> "ProjectIndex":
        modules: dict[str, dict[str, Any]] = {}
        for facts in sorted(facts_list, key=lambda f: str(f["path"])):
            module = facts.get("module")
            if isinstance(module, str) and module not in modules:
                modules[module] = facts
        return cls(modules=modules)

    def split_qualified(self, qualified: str) -> tuple[str, str] | None:
        """``repro.a.b.name`` → (longest indexed module, first attr)."""
        parts = qualified.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            if module in self.modules:
                return module, parts[cut]
        return None

    def resolve_def(
        self, module: str, name: str, _depth: int = 0
    ) -> tuple[bool | None, str]:
        """Does ``module.name`` resolve to a module-level definition?

        Returns ``(verdict, detail)``: ``True`` for a proven top-level
        def, ``False`` for a proven violation (nested def, lambda
        assignment, missing symbol), ``None`` when the chain leaves the
        indexed tree and must be trusted.
        """
        if _depth > 5:
            return None, "resolution chain too deep"
        facts = self.modules.get(module)
        if facts is None:
            return None, f"module {module} is outside the linted tree"
        defs = facts["defs"]
        if name in defs["top"]:
            return True, f"top-level def in {module}"
        if name in defs["lambdas"]:
            return False, (
                f"{module}.{name} is a module-level lambda assignment, "
                "which pickles by qualified name '<lambda>' and breaks"
            )
        bindings = facts.get("bindings", {})
        if name in bindings:
            qualified = str(bindings[name])
            if not qualified.startswith("repro."):
                return None, f"imported from {qualified}"
            split = self.split_qualified(qualified)
            if split is None:
                return None, f"re-export of unindexed {qualified}"
            target_module, attr = split
            return self.resolve_def(target_module, attr, _depth + 1)
        if name in defs["assigns"]:
            return None, f"module-level assignment in {module}"
        if name in defs["nested"]:
            return False, (
                f"{module}.{name} is a nested function; workers can only "
                "import module-level callables"
            )
        return False, f"{module} has no module-level binding named {name!r}"


# -- the whole-program entry point --------------------------------------


def run_project_lint(
    paths: Sequence[Path],
    *,
    rules: Sequence[str] | None = None,
    root: Path | None = None,
) -> LintReport:
    """Run the full two-phase lint; findings come back sorted."""
    from repro.analysis.checkers import partition_checkers

    file_checkers, project_checkers = partition_checkers(rules)
    findings: list[Finding] = []
    facts: list[dict[str, Any]] = []
    for path in iter_python_files(paths):
        source = load_source(path, root=root)
        for checker in file_checkers:
            findings.extend(checker.check(source))
        facts.append(extract_facts(source))

    index = ProjectIndex.build(facts)
    for project_checker in project_checkers:
        findings.extend(project_checker.check_project(index))

    findings.sort(key=Finding.sort_key)
    return LintReport(findings=findings, files_checked=len(facts))


__all__ = [
    "BOUNDARY_FUNCTIONS",
    "CLOCK_AND_ENTROPY_CALLS",
    "EXIT_CONTRACT_MODULES",
    "ProjectChecker",
    "ProjectIndex",
    "extract_facts",
    "run_project_lint",
]
