"""Online solver serving: admission, micro-batching, plan cache, fleet.

This package turns the batch reproducer into a request-driven service
model.  A stream of :class:`SolveRequest` objects flows through

1. **admission control** — a bounded priority queue that sheds with
   explicit backpressure responses instead of growing without bound,
2. the **micro-batch scheduler** — groups structurally compatible
   requests (same CSR fingerprint, or same reconfiguration-plan
   signature once cached) and dispatches them onto the multi-tenant
   fleet model, charging simulated device time,
3. the **fingerprint-keyed plan cache** — an LRU of the structure
   fingerprints already analyzed: repeat traffic skips the Matrix
   Structure unit and Fine-Grained Reconfiguration analysis, whose
   decisions the source's profile already holds.

Everything runs on a virtual clock, so a fixed request log produces a
byte-identical report (see ``docs/serving.md``).  Entry points:
``repro serve`` / ``repro loadtest`` on the CLI, or
:func:`run_service` / :func:`run_loadtest` from code.

The :mod:`repro.serve.cluster` subpackage scales this model to a
dynamically sized *cluster* of fleets — consistent-hash fingerprint
routing, a tiered plan cache and a deterministic autoscaler — behind
``repro loadtest --cluster`` / :func:`run_cluster_loadtest`.
"""

from repro.serve.admission import (
    AdmissionController,
    AdmissionVerdict,
    deadline_lapsed,
)
from repro.serve.api import (
    Outcome,
    Priority,
    SolveRequest,
    SolveResponse,
    parse_priority,
)
from repro.serve.cache import PlanCache, plan_signature
from repro.serve.cluster import (
    AutoscalerPolicy,
    ClusterConfig,
    ClusterReport,
    FleetFaultEvent,
    ForcedScaleEvent,
    HashRing,
    TieredPlanCache,
    generate_trace,
    run_cluster,
    run_cluster_loadtest,
)
from repro.serve.loadgen import (
    TRAFFIC_MIXES,
    LoadSpec,
    generate_requests,
    read_request_log,
    write_request_log,
)
from repro.serve.profile import SolveProfile, build_profile, profile_items
from repro.serve.scheduler import DeviceFaultEvent, MicroBatchScheduler
from repro.serve.service import (
    ServiceConfig,
    ServingReport,
    build_profiles,
    run_loadtest,
    run_service,
)

__all__ = [
    "TRAFFIC_MIXES",
    "AdmissionController",
    "AdmissionVerdict",
    "AutoscalerPolicy",
    "ClusterConfig",
    "ClusterReport",
    "DeviceFaultEvent",
    "FleetFaultEvent",
    "ForcedScaleEvent",
    "HashRing",
    "LoadSpec",
    "MicroBatchScheduler",
    "Outcome",
    "PlanCache",
    "Priority",
    "ServiceConfig",
    "ServingReport",
    "SolveProfile",
    "SolveRequest",
    "SolveResponse",
    "TieredPlanCache",
    "build_profile",
    "build_profiles",
    "deadline_lapsed",
    "generate_requests",
    "generate_trace",
    "parse_priority",
    "plan_signature",
    "profile_items",
    "read_request_log",
    "run_cluster",
    "run_cluster_loadtest",
    "run_loadtest",
    "run_service",
    "write_request_log",
]
