"""Analysis tooling: convergence diagnostics and the invariant linter.

Two halves share this package:

- :mod:`repro.analysis.convergence` — the "why did my solver diverge"
  utilities (residual-trajectory summaries, rate extrapolation, ASCII
  trajectory plots, failure diagnosis); import them from that module;
- :mod:`repro.analysis.engine` + :mod:`repro.analysis.checkers` — the
  AST-based lint engine that machine-checks the repo's file-scoped
  contracts (determinism, layering, numeric safety, exceptions,
  telemetry naming, virtual clock — REP001–REP006), extended by
  :mod:`repro.analysis.project` into one serial whole-program pass
  with cross-module rules (telemetry liveness, worker-boundary purity,
  CLI exit contract, determinism escapes — REP007–REP010); fronted by
  the ``repro lint`` CLI with SARIF output in
  :mod:`repro.analysis.sarif`.
"""

from repro.analysis.checkers import (
    ALL_CHECKERS,
    ALL_PROJECT_CHECKERS,
    ALL_RULES,
    PROJECT_RULE_IDS,
    RULE_IDS,
    partition_checkers,
)
from repro.analysis.engine import (
    FORMATS,
    Checker,
    Finding,
    LintReport,
    SourceFile,
    format_findings,
)
from repro.analysis.project import (
    ProjectChecker,
    ProjectIndex,
    run_project_lint,
)

__all__ = [
    "ALL_CHECKERS",
    "ALL_PROJECT_CHECKERS",
    "ALL_RULES",
    "FORMATS",
    "Checker",
    "Finding",
    "LintReport",
    "PROJECT_RULE_IDS",
    "ProjectChecker",
    "ProjectIndex",
    "RULE_IDS",
    "SourceFile",
    "format_findings",
    "partition_checkers",
    "run_project_lint",
]
