"""Figure 13: allowed reconfiguration time per dataset.

For Acamar's total latency to stay at or below the static baseline's, all
of its fine-grained reconfiguration must fit in the compute-latency gap
``baseline_compute - acamar_compute``.  This experiment reports that
budget, the number of reconfiguration events that must share it, the
resulting per-event bound, and how the modeled ICAP compares — making
explicit the paper's point that reconfiguration speed is the binding
constraint on latency parity.
"""

from __future__ import annotations

from repro.experiments import runner
from repro.experiments.report import ExperimentTable
from repro.fpga import plan_event_unrolls

BASELINE_URB = 8
"""The static design this figure's budget is measured against."""


def run(keys: tuple[str, ...] | None = None) -> ExperimentTable:
    """Reconfiguration-time budget per dataset."""
    model = runner.performance_model()
    table = ExperimentTable(
        experiment_id="Figure 13",
        title="Allowed reconfiguration time vs static design "
        f"(URB={BASELINE_URB})",
        headers=(
            "ID", "budget_ms", "events", "per_event_us",
            "icap_event_us", "icap_fits",
        ),
    )
    for key in runner.resolve_keys(keys):
        prob = runner.problem(key)
        acamar = runner.acamar_result(key)
        acamar_lat = model.acamar_latency(prob.matrix, acamar)
        static_lat = model.solver_latency(
            prob.matrix, acamar.final, urb=BASELINE_URB
        )
        budget = static_lat.compute_seconds - acamar_lat.compute_seconds
        events = acamar_lat.final.reconfig_events
        per_event = budget / events if events else float("inf")
        event_unrolls = plan_event_unrolls(acamar.plan)
        icap_event = (
            sum(model.reconfig.spmv_event_seconds(u) for u in event_unrolls)
            / len(event_unrolls)
            if event_unrolls
            else 0.0
        )
        table.add_row(
            key,
            budget * 1e3,
            events,
            per_event * 1e6,
            icap_event * 1e6,
            icap_event <= per_event,
        )
    table.add_note(
        "per-event budget = compute-latency gap / reconfiguration events; "
        "events where the modeled ICAP (6.4 Gb/s) exceeds the budget "
        "quantify why the paper treats latency parity as reconfiguration-"
        "bandwidth-bound (Section VIII-A)"
    )
    return table
