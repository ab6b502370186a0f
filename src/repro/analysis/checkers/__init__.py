"""The repo-specific invariant checkers (rule ids REP001–REP010).

Two checker families share the registry:

- **file-scoped** checkers (REP001–REP006) implement
  :class:`~repro.analysis.engine.Checker` and see one parsed file at a
  time; they run in phase 1 of
  :func:`~repro.analysis.project.run_project_lint`,
- **project-scoped** checkers (REP007–REP010) implement
  :class:`~repro.analysis.project.ProjectChecker` and see the assembled
  :class:`~repro.analysis.project.ProjectIndex`; they run in phase 2.

:func:`partition_checkers` splits a rule selection into the two
families.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.analysis.checkers.clock_escape import ClockEscapeChecker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.exceptions import ExceptionPolicyChecker
from repro.analysis.checkers.exit_contract import ExitContractChecker
from repro.analysis.checkers.layering import LayeringChecker
from repro.analysis.checkers.numeric import NumericSafetyChecker
from repro.analysis.checkers.telemetry_liveness import (
    TelemetryLivenessChecker,
)
from repro.analysis.checkers.telemetry_names import TelemetryNameChecker
from repro.analysis.checkers.virtual_clock import VirtualClockChecker
from repro.analysis.checkers.worker_boundary import WorkerBoundaryChecker
from repro.analysis.engine import Checker
from repro.errors import UnknownNameError

if TYPE_CHECKING:  # pragma: no cover — import cycle guard
    from repro.analysis.project import ProjectChecker

ALL_CHECKERS: tuple[Checker, ...] = (
    DeterminismChecker(),
    LayeringChecker(),
    NumericSafetyChecker(),
    ExceptionPolicyChecker(),
    TelemetryNameChecker(),
    VirtualClockChecker(),
)
"""The file-scoped checkers, in rule-id order."""

ALL_PROJECT_CHECKERS: tuple["ProjectChecker", ...] = (
    TelemetryLivenessChecker(),
    WorkerBoundaryChecker(),
    ExitContractChecker(),
    ClockEscapeChecker(),
)
"""The project-scoped (cross-module) checkers, in rule-id order."""

RULE_IDS: tuple[str, ...] = tuple(
    c.rule_id for c in (*ALL_CHECKERS, *ALL_PROJECT_CHECKERS)
)

PROJECT_RULE_IDS: tuple[str, ...] = tuple(
    c.rule_id for c in ALL_PROJECT_CHECKERS
)

ALL_RULES: dict[str, str] = {
    c.rule_id: c.title for c in (*ALL_CHECKERS, *ALL_PROJECT_CHECKERS)
}
"""Rule id → one-line title, for ``--help`` text and SARIF metadata."""


def partition_checkers(
    rules: Sequence[str] | None,
) -> tuple[tuple[Checker, ...], tuple["ProjectChecker", ...]]:
    """Split a rule selection into (file-scoped, project-scoped).

    ``None`` (or an empty selection) means everything; an unknown rule
    id raises :class:`~repro.errors.UnknownNameError`.  Order follows
    the selection, deduplicated.
    """
    if not rules:
        return ALL_CHECKERS, ALL_PROJECT_CHECKERS
    unknown = sorted(set(rules) - set(ALL_RULES))
    if unknown:
        raise UnknownNameError(
            f"unknown lint rule(s) {unknown}; known: {sorted(ALL_RULES)}"
        )
    file_by_id = {c.rule_id: c for c in ALL_CHECKERS}
    project_by_id = {c.rule_id: c for c in ALL_PROJECT_CHECKERS}
    selection = tuple(dict.fromkeys(rules))
    return (
        tuple(file_by_id[r] for r in selection if r in file_by_id),
        tuple(project_by_id[r] for r in selection if r in project_by_id),
    )


__all__ = [
    "ALL_CHECKERS",
    "ALL_PROJECT_CHECKERS",
    "ALL_RULES",
    "PROJECT_RULE_IDS",
    "RULE_IDS",
    "ClockEscapeChecker",
    "DeterminismChecker",
    "ExceptionPolicyChecker",
    "ExitContractChecker",
    "LayeringChecker",
    "NumericSafetyChecker",
    "TelemetryLivenessChecker",
    "TelemetryNameChecker",
    "VirtualClockChecker",
    "WorkerBoundaryChecker",
    "partition_checkers",
]
