"""Table II: per-solver convergence (✓/✗) and Acamar's robust convergence.

For every stand-in dataset, runs Jacobi, CG and BiCG-STAB independently
(the static columns) and the full Acamar accelerator (last column), and
compares the observed pattern against the paper's.
"""

from __future__ import annotations

from repro.datasets import dataset_spec
from repro.experiments import runner
from repro.experiments.report import ExperimentTable

SOLVER_ORDER = ("jacobi", "cg", "bicgstab")


def run(keys: tuple[str, ...] | None = None) -> ExperimentTable:
    """Regenerate Table II over ``keys`` (default: all 25 datasets)."""
    table = ExperimentTable(
        experiment_id="Table II",
        title="Solvers diverging (x) and converging (Y) per dataset",
        headers=(
            "ID", "dataset", "DIM", "sparsity%", "JB", "CG", "BiCG-STAB",
            "Acamar", "Acamar sequence", "matches paper",
        ),
    )
    mismatches = 0
    for key in runner.resolve_keys(keys):
        spec = dataset_spec(key)
        solo = runner.portfolio(key)
        acamar = runner.acamar_result(key)
        observed = {name: solo[name].converged for name in SOLVER_ORDER}
        matches = observed == spec.expected and acamar.converged
        mismatches += 0 if matches else 1
        table.add_row(
            spec.key,
            spec.name,
            spec.paper_dim,
            spec.paper_sparsity,
            observed["jacobi"],
            observed["cg"],
            observed["bicgstab"],
            acamar.converged,
            "->".join(acamar.solver_sequence),
            matches,
        )
    table.add_note(
        f"{len(table.rows) - mismatches}/{len(table.rows)} rows match the "
        "paper's pattern (paper: Acamar column all Y)"
    )
    return table
