"""Multi-fleet serving: fingerprint router, tiered cache, autoscaler.

The cluster tier generalizes single-fleet serving
(:mod:`repro.serve.service`) to a dynamically sized set of fleets:

- :mod:`repro.serve.cluster.ring` — consistent-hash placement by CSR
  structure fingerprint (plan-cache affinity with bounded remap),
- :mod:`repro.serve.cluster.cache` — per-fleet local LRUs over a
  cluster directory, with an explicit local/remote/miss cost ladder,
- :mod:`repro.serve.cluster.autoscale` — deterministic scale decisions
  with hysteresis from per-epoch telemetry signals,
- :mod:`repro.serve.cluster.trace` — array-native request traces
  (millions of arrivals without per-request Python objects),
- :mod:`repro.serve.cluster.events` — the heap-based timer wheel,
- :mod:`repro.serve.cluster.service` — the simulator and its report.

See ``docs/serving.md`` (architecture) and ``docs/operations.md``
(autoscaler runbook).
"""

from repro.serve.cluster.autoscale import (
    Autoscaler,
    AutoscalerPolicy,
    IntervalSignals,
    ScaleAction,
    ScaleDecision,
)
from repro.serve.cluster.cache import TieredPlanCache, TierStats
from repro.serve.cluster.events import TimerEvent, TimerWheel
from repro.serve.cluster.ring import HashRing
from repro.serve.cluster.service import (
    ClusterConfig,
    ClusterReport,
    FleetFaultEvent,
    ForcedScaleEvent,
    run_cluster,
    run_cluster_loadtest,
)
from repro.serve.cluster.trace import RequestTrace, generate_trace

__all__ = [
    "Autoscaler",
    "AutoscalerPolicy",
    "ClusterConfig",
    "ClusterReport",
    "FleetFaultEvent",
    "ForcedScaleEvent",
    "HashRing",
    "IntervalSignals",
    "RequestTrace",
    "ScaleAction",
    "ScaleDecision",
    "TieredPlanCache",
    "TierStats",
    "TimerEvent",
    "TimerWheel",
    "generate_trace",
    "run_cluster",
    "run_cluster_loadtest",
]
