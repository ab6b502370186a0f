"""Analysis tooling: convergence diagnostics and the invariant linter.

Two halves share this package:

- :mod:`repro.analysis.convergence` — the "why did my solver diverge"
  utilities (residual-trajectory summaries, rate extrapolation, ASCII
  trajectory plots, failure diagnosis); import them from that module;
- :mod:`repro.analysis.engine` + :mod:`repro.analysis.checkers` — the
  AST-based lint engine that machine-checks the repo's file-scoped
  contracts (determinism, layering, numeric safety, exceptions,
  telemetry naming, virtual clock — REP001–REP006), extended by
  :mod:`repro.analysis.project` into a whole-program pass with
  cross-module rules (telemetry liveness, worker-boundary purity, CLI
  exit contract, determinism escapes — REP007–REP010), an incremental
  content-hash cache and ``run_sharded`` fan-out; fronted by the
  ``repro lint`` CLI with SARIF output in :mod:`repro.analysis.sarif`.
"""

from repro.analysis.checkers import (
    ALL_CHECKERS,
    ALL_PROJECT_CHECKERS,
    ALL_RULES,
    PROJECT_RULE_IDS,
    RULE_IDS,
    checkers_for_rules,
    partition_checkers,
)
from repro.analysis.engine import (
    FORMATS,
    Checker,
    Finding,
    LintReport,
    SourceFile,
    format_findings,
    run_lint,
)
from repro.analysis.project import (
    DEFAULT_CACHE_NAME,
    ProjectChecker,
    ProjectIndex,
    run_project_lint,
)

__all__ = [
    "ALL_CHECKERS",
    "ALL_PROJECT_CHECKERS",
    "ALL_RULES",
    "DEFAULT_CACHE_NAME",
    "FORMATS",
    "Checker",
    "Finding",
    "LintReport",
    "PROJECT_RULE_IDS",
    "ProjectChecker",
    "ProjectIndex",
    "RULE_IDS",
    "SourceFile",
    "checkers_for_rules",
    "format_findings",
    "partition_checkers",
    "run_lint",
    "run_project_lint",
]
