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
  ``repro lint`` CLI with baseline suppression in
  :mod:`repro.analysis.baseline` and SARIF output in
  :mod:`repro.analysis.sarif`.
"""

from repro.analysis.baseline import (
    DEFAULT_BASELINE,
    apply_baseline,
    load_baseline,
    prune_baseline,
    write_baseline,
)
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
    changed_files,
    run_project_lint,
)

__all__ = [
    "ALL_CHECKERS",
    "ALL_PROJECT_CHECKERS",
    "ALL_RULES",
    "DEFAULT_BASELINE",
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
    "apply_baseline",
    "changed_files",
    "checkers_for_rules",
    "format_findings",
    "load_baseline",
    "partition_checkers",
    "prune_baseline",
    "run_lint",
    "run_project_lint",
    "write_baseline",
]
