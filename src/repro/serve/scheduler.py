"""Micro-batched dispatch onto the solver fleet.

The scheduler converts the admission queue into **micro-batches** of
compatible requests and places them on fleet slots
(:class:`repro.fpga.multitenancy.FleetSpec`), charging simulated device
time so tenancy limits genuinely bound concurrency.

Compatibility follows the fabric, not the client: requests whose
matrices share a structure fingerprint — or, once their analysis is
cached, a reconfiguration-plan *signature* — can run back-to-back on one
Reconfigurable Solver instance with no reconfiguration between them.
Batching therefore amortizes exactly the costs Acamar's decision loops
amortize: the structure analysis is charged once per cold batch, the
ICAP configuration load once per placement on a slot whose resident
configuration differs (plan-signature **affinity** routes batches to
slots already configured for them), and every member after the first
pays only its final-attempt device compute.

Dispatch policy per scheduling tick: groups are considered in
(priority, arrival) order and dispatch when a slot is free **and** the
group is ripe — full, interactive-headed, or older than the batch
window.  Everything is deterministic: ties break on request id and slot
index.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

from repro import telemetry as tm
from repro.errors import ConfigurationError
from repro.fpga.multitenancy import FleetSpec
from repro.placement import FPGA, GPU, PlacementDecision, decide_placement
from repro.serve.admission import QueuedRequest
from repro.serve.api import Outcome, Priority, SolveResponse
from repro.serve.cache import PlanCache
from repro.serve.profile import (
    BATCH_MEMBER_DISPATCH_SECONDS,
    DISPATCH_OVERHEAD_SECONDS,
    SolveProfile,
)


@dataclass(frozen=True)
class DeviceFaultEvent:
    """One modeled transient device fault on the virtual clock.

    At virtual time ``at_s`` the slot goes dark for ``outage_s`` seconds
    (SEU scrub, ICAP region recovery, a wedged kernel being reset): it
    accepts no new batches until the outage ends, and its resident
    configuration is wiped, so the next batch placed there pays a full
    configuration load.  Work already charged to the slot is not
    revoked — the model treats in-flight batches as completing before
    the region is recovered, which keeps the accounting invariant
    ("every request gets exactly one response") intact by construction.

    ``device_class`` scopes the fault: ``slot`` indexes into that
    class's slot pool only, so a fault aimed at a GPU tenant can never
    evict a resident FPGA plan (and vice versa).  A fault naming a
    class the fleet does not host is consumed without effect.

    Construction raises :class:`~repro.errors.ConfigurationError` for a
    time that is not finite, a negative outage, a slot that is not an
    integer and a class other than ``fpga`` or ``gpu``, so a bad
    schedule fails before any profiling.
    """

    at_s: float
    slot: int
    outage_s: float
    device_class: str = FPGA

    def __post_init__(self) -> None:
        for name in ("at_s", "outage_s"):
            value = getattr(self, name)
            if (
                isinstance(value, bool)
                or not isinstance(value, numbers.Real)
                or not math.isfinite(value)
            ):
                raise ConfigurationError(
                    f"device-fault {name} must be a finite number, "
                    f"got {value!r}"
                )
        if self.outage_s < 0:
            raise ConfigurationError(
                f"device-fault outage_s must be >= 0, got {self.outage_s}"
            )
        if isinstance(self.slot, bool) or not isinstance(
            self.slot, numbers.Integral
        ):
            raise ConfigurationError(
                f"device-fault slot must be an integer, got {self.slot!r}"
            )
        if self.device_class not in (FPGA, GPU):
            raise ConfigurationError(
                f"device-fault device_class must be {FPGA!r} or {GPU!r}, "
                f"got {self.device_class!r}"
            )


@dataclass
class FleetSlot:
    """One dispatch slot's state on the virtual clock.

    A slot is either an FPGA Reconfigurable Solver instance or a GPU
    tenant (``device_class``); both track residency the same way — the
    plan signature whose structure/configuration they currently hold.
    """

    index: int
    busy_until_s: float = 0.0
    resident_signature: str | None = None
    busy_seconds: float = 0.0
    config_loads: int = 0
    batches: int = 0
    outages: int = 0
    device_class: str = FPGA


@dataclass
class BatchRecord:
    """Accounting for one dispatched micro-batch."""

    batch_id: int
    size: int
    instance: int
    start_s: float
    end_s: float
    cold: bool
    config_load: bool
    device_class: str = FPGA


@dataclass
class MicroBatchScheduler:
    """Forms and places micro-batches; owns the fleet slot state.

    ``profiles`` maps source text to its :class:`SolveProfile` (or an
    error string when profiling failed); the service resolves it before
    the simulation loop.  ``cache`` is ``None`` when serving runs
    cache-less (``--no-cache``) — batching still amortizes within a
    batch, but every batch re-runs the analysis.  The scheduler must be
    the cache's only writer during a run: it memoizes group keys and
    drops them on its own ``put`` (see :meth:`group_key`).
    """

    fleet: FleetSpec
    profiles: dict[str, "SolveProfile | str"]
    cache: PlanCache | None = None
    max_batch: int = 8
    batch_window_s: float = 2e-3
    device_faults: tuple[DeviceFaultEvent, ...] = ()
    slots: list[FleetSlot] = field(default_factory=list)
    batches: list[BatchRecord] = field(default_factory=list)
    _faults_applied: int = 0

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ConfigurationError(
                f"max_batch must be >= 1, got {self.max_batch}"
            )
        if not (math.isfinite(self.batch_window_s)
                and self.batch_window_s >= 0):
            raise ConfigurationError(
                "batch window must be a finite number >= 0, got "
                f"{self.batch_window_s}"
            )
        self.device_faults = tuple(
            sorted(
                self.device_faults,
                key=lambda e: (e.at_s, e.device_class, e.slot),
            )
        )
        if not self.slots:
            self.slots = [
                FleetSlot(index=i) for i in range(self.fleet.total_slots)
            ] + [
                FleetSlot(
                    index=self.fleet.total_slots + j, device_class=GPU
                )
                for j in range(self.fleet.gpu_tenants)
            ]
        self._placements: dict[str, PlacementDecision] = {}
        self._group_keys: dict[str, tuple[str, str, str]] = {}

    # -- placement decisions ------------------------------------------

    def placement_for(self, source: str) -> PlacementDecision | None:
        """Memoized per-source placement (``None`` for failed profiles).

        Decisions are pure functions of the profile and the fleet's
        tenancy mix, so memoization is a pure speedup — every run,
        machine and worker count computes the identical placement.
        """
        if source in self._placements:
            return self._placements[source]
        profile = self.profiles[source]
        if isinstance(profile, str):
            return None
        decision = decide_placement(
            profile,
            fpga_slots=self.fleet.total_slots,
            gpu_tenants=self.fleet.gpu_tenants,
            max_batch=self.max_batch,
        )
        self._placements[source] = decision
        return decision

    @property
    def _default_class(self) -> str:
        """Device class for batches with no profile (failed analyses)."""
        return FPGA if self.fleet.total_slots > 0 else GPU

    # -- batch formation ----------------------------------------------

    def group_key(self, queued: QueuedRequest) -> tuple[str, str, str]:
        """Compatibility key: plan signature when cached, else fingerprint.

        A fingerprint's plan signature is only *known* to the service
        once its analysis ran and is cached, so signature-level merging
        (batching different structures that share a schedule) engages
        for warm traffic only.  Failed profiles group by source so one
        poisoned source cannot contaminate a healthy batch.

        The third element is the placement's device class: requests
        bound for different backends never share a micro-batch, so the
        batch's charge model is unambiguous.

        A key depends only on the source's profile and placement (both
        fixed for a run) and on whether the cache holds its fingerprint,
        which only :meth:`_serve_batch`'s ``put`` changes (it is also the
        only place an eviction happens).  :meth:`dispatch` therefore
        memoizes keys per source and drops the memo on every ``put``;
        without a cache, keys never change.
        """
        profile = self.profiles[queued.request.source]
        if isinstance(profile, str):
            return ("error", queued.request.source, self._default_class)
        placed = self.placement_for(queued.request.source)
        device_class = placed.device_class if placed else self._default_class
        if self.cache is not None and self.cache.peek(profile.fingerprint):
            return ("plan", profile.plan_signature, device_class)
        return ("fp", profile.fingerprint, device_class)

    def _ripe(self, members: list[QueuedRequest], now: float) -> bool:
        """Is the group full, interactive-headed, or older than the window?

        Given the whole (priority-sorted) queue, the same tests bound
        every group formed from it at once: a group is never larger than
        the queue, its head is interactive only if the queue's head is,
        and its eldest member is no older than the queue's.  When the
        queue is not ripe, no group is.
        """
        if (
            len(members) >= self.max_batch
            or members[0].request.priority is Priority.INTERACTIVE
        ):
            return True
        eldest = members[0].admitted_s
        for queued in members:  # ``min``'s scan, without building a list
            if queued.admitted_s < eldest:
                eldest = queued.admitted_s
        return now - eldest >= self.batch_window_s

    # -- modeled device faults ----------------------------------------

    def next_fault_s(self) -> float | None:
        """Time of the first fault not yet applied, or ``None``."""
        if self._faults_applied < len(self.device_faults):
            return self.device_faults[self._faults_applied].at_s
        return None

    def apply_device_faults(self, now: float) -> None:
        """Apply every scheduled fault whose time has come (idempotent).

        Called at the top of each dispatch tick; events are consumed in
        ``(at_s, device_class, slot)`` order, so a fixed fault schedule
        perturbs the simulation identically on every run.

        Each event resolves its slot ordinal *within its device class's
        pool*: a GPU-tenant fault can only darken (and evict the
        residency of) a GPU slot, never a co-scheduled FPGA instance.
        An event naming a class this fleet does not host is consumed
        without effect or counter.
        """
        while self._faults_applied < len(self.device_faults):
            event = self.device_faults[self._faults_applied]
            if event.at_s > now:
                break
            self._faults_applied += 1
            pool = [
                slot
                for slot in self.slots
                if slot.device_class == event.device_class
            ]
            if not pool:
                continue
            slot = pool[event.slot % len(pool)]
            slot.busy_until_s = max(
                slot.busy_until_s, event.at_s + event.outage_s
            )
            slot.resident_signature = None
            slot.outages += 1
            tm.count("serve.device_faults")

    # -- placement ----------------------------------------------------

    @staticmethod
    def _choose_slot(
        free: list[FleetSlot], signature: str | None, device_class: str
    ) -> int:
        """Position in ``free`` of the slot a batch goes to, or -1.

        ``free`` is in slot-index order and holds the free slots of every
        class.  Of those of ``device_class``, a slot already configured
        for ``signature`` wins (affinity); otherwise the lowest index
        does.
        """
        first = -1
        for position, slot in enumerate(free):
            if slot.device_class != device_class:
                continue
            if signature is not None and slot.resident_signature == signature:
                return position
            if first < 0:
                first = position
                if signature is None:
                    break
        return first

    def _serve_batch(
        self,
        slot: FleetSlot,
        members: list[QueuedRequest],
        profile: SolveProfile,
        now: float,
        batch_id: int,
    ) -> list[SolveResponse]:
        signature = profile.plan_signature
        cache = self.cache
        device_class = slot.device_class
        # Residency matching needs the cache: without it the service
        # never learns a structure's plan signature ahead of dispatch, so
        # it cannot prove the slot's resident configuration matches and
        # must reload the region for every batch.  On an FPGA slot a
        # residency miss is an ICAP configuration load; on a GPU tenant
        # it is the PCIe structure upload.
        config_load = cache is None or slot.resident_signature != signature
        on_gpu = device_class == GPU
        swap_charge = profile.gpu_transfer_s if on_gpu else profile.solver_swap_s
        cursor = now + (swap_charge if config_load else 0.0)
        if config_load:
            slot.config_loads += 1
            if on_gpu:
                tm.count("gpu.transfers")
            else:
                tm.count("serve.config_loads")
        batch_warm = cache is not None and cache.get(profile.fingerprint)
        if cache is not None and not batch_warm:
            cache.put(profile.fingerprint)
            # The put may add this fingerprint and evict others: every
            # memoized group key may be stale now.
            self._group_keys.clear()
        cpu_assist = self.fleet.cpu_assist
        if not batch_warm and cpu_assist:
            tm.count("placement.cpu_assist_offloads")
        # The first member of a cold batch pays the full analysis and
        # fallback chain; later members share it (micro-batch
        # amortization) but still count as cache misses — only a warm
        # batch's members were truly served from the cache.  Only the
        # batch head pays full dispatch; members on the same configured
        # slot reuse its descriptor and lookup.
        service = DISPATCH_OVERHEAD_SECONDS + profile.member_service_s(
            device_class, not batch_warm, cpu_assist
        )
        member_service = service
        if len(members) > 1:
            member_service = (
                BATCH_MEMBER_DISPATCH_SECONDS
                + profile.member_service_s(device_class, False, cpu_assist)
            )
        instance = slot.index
        converged = profile.converged
        solver_sequence = profile.solver_sequence
        iterations = profile.iterations
        responses: list[SolveResponse] = []
        for queued in members:
            request = queued.request
            start = cursor
            cursor += service
            responses.append(
                SolveResponse.completed(
                    request,
                    cursor,  # finish_s
                    start - request.arrival_s,  # queue_s
                    service,
                    batch_warm,  # cache_hit
                    batch_id,
                    instance,
                    converged,
                    solver_sequence,
                    iterations,
                )
            )
            service = member_service
        tm.count(
            "serve.cache_hits" if batch_warm else "serve.cache_misses",
            len(members),
        )
        slot.resident_signature = signature
        slot.busy_seconds += cursor - now
        slot.busy_until_s = cursor
        slot.batches += 1
        self.batches.append(
            BatchRecord(
                batch_id=batch_id,
                size=len(members),
                instance=instance,
                start_s=now,
                end_s=cursor,
                cold=not batch_warm,
                config_load=config_load,
                device_class=device_class,
            )
        )
        tm.count("serve.batches")
        # Per-class batch counters only exist once placement is active
        # (a mixed fleet); pure-FPGA fleets keep their pre-placement
        # counter schema byte-for-byte.
        if self.fleet.gpu_tenants > 0:
            if on_gpu:
                tm.count("placement.gpu_batches")
            else:
                tm.count("placement.fpga_batches")
        return responses

    def _fail_batch(
        self,
        slot: FleetSlot,
        members: list[QueuedRequest],
        error: str,
        now: float,
        batch_id: int,
    ) -> list[SolveResponse]:
        """Charge the failed analysis and report the error per request."""
        cursor = now
        responses = []
        for queued in members:
            service = DISPATCH_OVERHEAD_SECONDS
            start = cursor
            cursor += service
            responses.append(
                SolveResponse(
                    request_id=queued.request.request_id,
                    source=queued.request.source,
                    outcome=Outcome.FAILED,
                    priority=queued.request.priority,
                    arrival_s=queued.request.arrival_s,
                    finish_s=cursor,
                    queue_s=start - queued.request.arrival_s,
                    service_s=service,
                    batch_id=batch_id,
                    instance=slot.index,
                    detail=error,
                )
            )
            tm.count("serve.failed")
        slot.busy_seconds += cursor - now
        slot.busy_until_s = cursor
        slot.batches += 1
        self.batches.append(
            BatchRecord(
                batch_id=batch_id,
                size=len(members),
                instance=slot.index,
                start_s=now,
                end_s=cursor,
                cold=True,
                config_load=False,
                device_class=slot.device_class,
            )
        )
        return responses

    def dispatch(
        self, queue: list[QueuedRequest], now: float, next_batch_id: int
    ) -> tuple[list[SolveResponse], list[QueuedRequest], int]:
        """Place every ripe group a free slot can take at ``now``.

        Returns (responses, remaining queue, next batch id).  The queue
        comes in admission (priority) order and leaves the same way.
        A tick that cannot dispatch (empty queue, no free slot, no group
        that can be ripe) returns the queue unchanged without forming
        groups.

        Each placement re-forms the groups from the remaining queue,
        because a cold batch's ``put`` can merge groups, and places the
        first ripe group whose device class has a free slot: a class
        with none skips the group rather than ending the tick.  The free
        slots are found once per tick and a slot leaves the list when
        its batch makes it busy.
        """
        if self._faults_applied < len(self.device_faults):
            self.apply_device_faults(now)
        if not queue or not self._ripe(queue, now):
            return [], queue, next_batch_id
        free = [slot for slot in self.slots if slot.busy_until_s <= now]
        if not free:
            return [], queue, next_batch_id
        profiles = self.profiles
        keys = self._group_keys
        max_batch = self.max_batch
        with_cache = self.cache is not None
        responses: list[SolveResponse] = []
        remaining = queue
        while remaining and free:
            groups: dict[tuple[str, str, str], list[QueuedRequest]] = {}
            for queued in remaining:
                source = queued.request.source
                key = keys.get(source)
                if key is None:
                    key = keys[source] = self.group_key(queued)
                members = groups.get(key)
                if members is None:
                    groups[key] = [queued]
                else:
                    members.append(queued)
            for key, members in groups.items():
                if not self._ripe(members, now):
                    continue
                take = members[:max_batch]
                profile = profiles[take[0].request.source]
                failed = isinstance(profile, str)
                position = self._choose_slot(
                    free,
                    profile.plan_signature
                    if with_cache and not failed
                    else None,
                    key[2],
                )
                if position < 0:
                    continue
                slot = free[position]
                if failed:
                    responses.extend(
                        self._fail_batch(slot, take, profile, now, next_batch_id)
                    )
                else:
                    responses.extend(
                        self._serve_batch(slot, take, profile, now, next_batch_id)
                    )
                next_batch_id += 1
                if slot.busy_until_s > now:
                    del free[position]
                if len(take) == len(remaining):
                    remaining = []
                else:
                    taken = {id(q) for q in take}
                    remaining = [q for q in remaining if id(q) not in taken]
                break
            else:
                break
        return responses, remaining, next_batch_id
