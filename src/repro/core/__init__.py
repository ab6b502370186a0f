"""Acamar's core: the paper's primary contribution.

Maps Figure 3's blocks to modules:

- :mod:`~repro.core.matrix_structure` — Matrix Structure unit (Solver
  Decision loop's analysis stage),
- :mod:`~repro.core.finegrained` — Fine-Grained Reconfiguration unit with
  the Row Length Trace (Resource Decision loop),
- :mod:`~repro.core.msid` — Multi-Stage Iterative Decision chain
  (Algorithm 4),
- :mod:`~repro.core.initialize` — Initialize unit kernel composition,
- :mod:`~repro.core.solver_modifier` — Solver Modifier unit,
- :mod:`~repro.core.accelerator` — the :class:`~repro.core.accelerator.Acamar`
  orchestration tying both decision loops together.
"""

from repro.core.accelerator import Acamar, AcamarResult, SolverAttempt
from repro.core.design_space import (
    DesignPoint,
    evaluate_point,
    explore,
    pareto_front,
    recommend,
)
from repro.core.finegrained import (
    FineGrainedReconfigurationUnit,
    ReconfigurationPlan,
    RowLengthTrace,
    RowSetPlan,
    plan_reconfiguration_rate,
    quantize_unroll,
    unsmoothed_event_count,
)
from repro.core.matrix_structure import MatrixStructureUnit, SolverSelection
from repro.core.msid import (
    MSIDChain,
    MSIDResult,
    msid_stage,
    reconfiguration_events,
    reconfiguration_rate,
    run_msid_chain,
)
from repro.core.solver_modifier import SolverModifierUnit

__all__ = [
    "Acamar",
    "AcamarResult",
    "DesignPoint",
    "evaluate_point",
    "explore",
    "pareto_front",
    "recommend",
    "FineGrainedReconfigurationUnit",
    "MSIDChain",
    "MSIDResult",
    "MatrixStructureUnit",
    "ReconfigurationPlan",
    "RowLengthTrace",
    "RowSetPlan",
    "SolverAttempt",
    "SolverModifierUnit",
    "SolverSelection",
    "msid_stage",
    "plan_reconfiguration_rate",
    "quantize_unroll",
    "reconfiguration_events",
    "reconfiguration_rate",
    "run_msid_chain",
    "unsmoothed_event_count",
]
