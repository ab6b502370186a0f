"""The invariant lint engine: parsed files, findings, renderers.

The repo's most valuable guarantees — byte-identical serving reports on
a virtual clock, bit-identical seed-kernel SpMV parity, deterministic
per-position campaign seeds, and the ``sparse → fpga → solvers →
serve/parallel → cli`` layering — are contracts that generic linters
cannot express.  This module provides the machinery to machine-check
them:

- :class:`SourceFile` — one parsed file (text, AST, dotted module name),
- :class:`Finding` — one rule violation at a specific site,
- :class:`Checker` — the protocol every file-scoped rule implements,
- :func:`iter_python_files` / :func:`load_source` — walk paths and
  parse each file once,
- :func:`format_findings` — ``text`` / ``json`` / ``github`` / ``sarif``
  renderers (``github`` emits workflow annotation commands so findings
  land on PR diffs; ``sarif`` emits a SARIF 2.1.0 log for code-scanning
  upload, rendered by :mod:`repro.analysis.sarif`).

Checkers live in :mod:`repro.analysis.checkers`; the one lint entry
point is :func:`repro.analysis.project.run_project_lint`, fronted by
``repro lint``.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Protocol, Sequence

from repro.errors import ConfigurationError

ANALYSIS_SCHEMA_VERSION = 2

FORMATS = ("text", "json", "github", "sarif")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific site."""

    rule: str
    path: str
    line: int
    message: str
    severity: str = "error"

    def as_dict(self) -> dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "severity": self.severity,
        }

    def sort_key(self) -> tuple[str, int, str]:
        return (self.path, self.line, self.rule)


@dataclass(frozen=True)
class SourceFile:
    """One parsed Python file, shared by every checker."""

    path: Path
    """Absolute filesystem path."""
    display_path: str
    """Repo-relative POSIX path used in findings."""
    module: str | None
    """Dotted module name (``repro.serve.service``) when the file lives
    under the ``repro`` package, else ``None`` — package-scoped checkers
    skip such files."""
    text: str
    tree: ast.Module

    def finding(
        self, rule: str, node: ast.AST | int, message: str
    ) -> Finding:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(
            rule=rule, path=self.display_path, line=line, message=message
        )


class Checker(Protocol):
    """One lint rule: inspect a parsed file, yield findings."""

    rule_id: str
    title: str

    def check(self, source: SourceFile) -> Iterator[Finding]:
        """Yield every violation of this rule in ``source``."""
        ...  # pragma: no cover — protocol body


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: list[Finding]
    files_checked: int = 0

    @property
    def clean(self) -> bool:
        return not self.findings


def module_name_for(path: Path) -> str | None:
    """Dotted module name for a file under a ``repro`` source tree.

    Walks the path components for the last ``repro`` segment (the
    package root under ``src/``); files outside any ``repro`` package —
    tests, benchmarks, fixtures — return ``None``.
    """
    parts = path.resolve().with_suffix("").parts
    if "repro" not in parts:
        return None
    root = len(parts) - 1 - tuple(reversed(parts)).index("repro")
    dotted = parts[root:]
    if dotted[-1] == "__init__":
        dotted = dotted[:-1] or ("repro",)
    return ".".join(dotted)


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Expand files/directories to a sorted, deduplicated ``.py`` list."""
    seen: set[Path] = set()
    collected: list[Path] = []
    for path in paths:
        if path.is_dir():
            candidates: Iterable[Path] = sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            candidates = [path]
        elif not path.exists():
            raise ConfigurationError(f"lint path does not exist: {path}")
        else:
            candidates = []
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            resolved = candidate.resolve()
            if resolved not in seen:
                seen.add(resolved)
                collected.append(candidate)
    return iter(collected)


def load_source(path: Path, root: Path | None = None) -> SourceFile:
    """Parse one file into the :class:`SourceFile` all checkers share."""
    text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as exc:
        raise ConfigurationError(
            f"cannot lint {path}: {exc.msg} (line {exc.lineno})"
        ) from exc
    resolved = path.resolve()
    display = resolved
    base = (root or Path.cwd()).resolve()
    try:
        display = resolved.relative_to(base)
    except ValueError:
        pass
    return SourceFile(
        path=resolved,
        display_path=display.as_posix(),
        module=module_name_for(path),
        text=text,
        tree=tree,
    )


# -- rendering ----------------------------------------------------------


def _render_text(report: LintReport) -> str:
    lines = [
        f"{f.path}:{f.line}: {f.rule} {f.message}" for f in report.findings
    ]
    lines.append(
        f"{len(report.findings)} finding(s) in {report.files_checked} "
        f"file(s)"
    )
    return "\n".join(lines)


def _render_json(report: LintReport) -> str:
    document = {
        "schema_version": ANALYSIS_SCHEMA_VERSION,
        "files_checked": report.files_checked,
        "findings": [f.as_dict() for f in report.findings],
    }
    return json.dumps(document, indent=2)


def _render_github(report: LintReport) -> str:
    """GitHub Actions workflow commands — one annotation per finding."""
    lines = []
    for f in report.findings:
        # Workflow-command data must escape %, CR and LF.
        message = (
            f.message.replace("%", "%25")
            .replace("\r", "%0D")
            .replace("\n", "%0A")
        )
        lines.append(
            f"::error file={f.path},line={f.line},title={f.rule}::{message}"
        )
    lines.append(
        f"{len(report.findings)} finding(s) in "
        f"{report.files_checked} file(s)"
    )
    return "\n".join(lines)


def format_findings(report: LintReport, fmt: str = "text") -> str:
    """Render a report as ``text``, ``json``, ``github`` or ``sarif``."""
    if fmt == "text":
        return _render_text(report)
    if fmt == "json":
        return _render_json(report)
    if fmt == "github":
        return _render_github(report)
    if fmt == "sarif":
        # Imported lazily: the SARIF renderer needs the rule catalogue
        # from repro.analysis.checkers, which imports this module.
        from repro.analysis.sarif import render_sarif

        return render_sarif(report)
    raise ConfigurationError(
        f"unknown lint format {fmt!r}; expected one of {FORMATS}"
    )
