"""Fleet design-space exploration and capacity planning (``repro dse``).

The decision tool over everything below it: declarative fleet shapes x
traffic mixes (:mod:`repro.dse.space`), each point deployed through the
virtual-clock cluster simulator and priced by the FPGA area/energy
models (:mod:`repro.dse.evaluator`), reduced to a Pareto frontier over
p99 latency, device-seconds, area, reconfiguration rate and GFLOPS/W
(:mod:`repro.dse.frontier`), and answering "cheapest fleet meeting SLO
X at rate Y" (:mod:`repro.dse.capacity`).  Reports are byte-identical
per seed for any worker count (:mod:`repro.dse.report`).
"""

from repro.dse.capacity import (
    DEFAULT_MAX_SHED_RATE,
    DEFAULT_RATE_RPS,
    DEFAULT_SLO_P99_MS,
    CapacityQuery,
    is_feasible,
    plan_capacity,
)
from repro.dse.evaluator import (
    acamar_config_for,
    cluster_config_for,
    evaluate_items,
    evaluate_point,
    load_spec_for,
    run_sweep,
)
from repro.dse.frontier import OBJECTIVES, compute_frontier, point_objectives
from repro.dse.report import (
    DSE_SCHEMA_VERSION,
    DseReport,
    build_report,
    run_dse,
)
from repro.dse.space import (
    DEMO_SOURCES,
    SHAPE_AXES,
    SOLVER_MIXES,
    DesignSpace,
    FleetShape,
    TrafficSpec,
    cross_shapes,
    demo_space,
    load_space,
    point_id,
    space_from_dict,
)

__all__ = [
    "DEFAULT_MAX_SHED_RATE",
    "DEFAULT_RATE_RPS",
    "DEFAULT_SLO_P99_MS",
    "DEMO_SOURCES",
    "DSE_SCHEMA_VERSION",
    "OBJECTIVES",
    "SHAPE_AXES",
    "SOLVER_MIXES",
    "CapacityQuery",
    "DesignSpace",
    "DseReport",
    "FleetShape",
    "TrafficSpec",
    "acamar_config_for",
    "build_report",
    "cluster_config_for",
    "compute_frontier",
    "cross_shapes",
    "demo_space",
    "evaluate_items",
    "evaluate_point",
    "is_feasible",
    "load_space",
    "load_spec_for",
    "plan_capacity",
    "point_id",
    "point_objectives",
    "run_dse",
    "run_sweep",
    "space_from_dict",
]
