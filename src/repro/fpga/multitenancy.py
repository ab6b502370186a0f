"""The fleet a serving deployment schedules against.

A deployment runs one device hosting a bounded number of co-resident
Reconfigurable Solver instances (:class:`FleetSpec`).  The serving
scheduler (:mod:`repro.serve`) charges simulated device time against
these slots, so tenancy limits bound in-flight batches exactly the way
fabric area bounds co-running kernels.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import check_integer_fields
from repro.errors import ConfigurationError


@dataclass(frozen=True, kw_only=True)
class FleetSpec:
    """A serving deployment: one FPGA with ``slots_per_device`` solver slots.

    A *slot* is one co-resident Reconfigurable Solver instance — an SpMV
    region provisioned up to the configured maximum unroll plus its
    dense-unit complement.  Slots are the unit of concurrency the
    serving scheduler dispatches micro-batches onto; each slot remembers
    the reconfiguration-plan signature it was last configured with, so
    routing a compatible batch to it skips the ICAP configuration load.

    A fleet may additionally declare **GPU tenants** (``gpu_tenants``
    MPS partitions running the cuSPARSE SpMV backend) and a **CPU-assist
    tier** (``cpu_assist``: cold-batch structure analysis offloaded to
    the host).  GPU tenants are dispatch slots of their own device
    class; the scheduler places each micro-batch on the cheaper backend
    per the placement cost models.  ``slots_per_device`` may be 0 to
    model a GPU-only fleet, but the fleet must keep at least one
    dispatchable slot overall.
    """

    slots_per_device: int = 4
    gpu_tenants: int = 0
    cpu_assist: bool = False

    def __post_init__(self) -> None:
        check_integer_fields(self, (
            ("slots_per_device", 0), ("gpu_tenants", 0)
        ))
        if self.slots_per_device + self.gpu_tenants < 1:
            raise ConfigurationError(
                "fleet needs at least one dispatchable slot "
                "(FPGA slots + GPU tenants)"
            )
