"""The serving simulator against its plain tick loop: differential tests.

``run_service`` skips the ticks on which its queue is empty and nothing
arrives or faults, ``MicroBatchScheduler.dispatch`` returns early on a
tick that cannot dispatch and places each batch in one pass over the
slots with memoized group keys, ``AdmissionController.offer`` inserts in
log time and ``expire`` returns at once while no queued deadline has
lapsed.  The straightforward versions they replaced are kept here as
the oracle: a loop that visits every tick, a dispatch that forms groups
on every tick, and an offer that appends, sorts the whole queue and
takes the preemption victim with ``max``.  The oracle owns frozen copies
of the scheduler helpers and of the expiry sweep as they stood before
the one-pass dispatch, so a fault in a rewritten helper cannot show on
both sides.  Reports must be byte for byte equal, with the depth samples
and the counters in order.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.serve.service as service
from repro import telemetry as tm
from repro.config import AcamarConfig
from repro.datasets.suite import dataset_keys, load_matrix
from repro.fpga.multitenancy import FleetSpec
from repro.placement import FPGA, GPU
from repro.serve.admission import (
    AdmissionController,
    AdmissionVerdict,
    QueuedRequest,
    deadline_lapsed,
)
from repro.serve.api import Outcome, Priority, SolveRequest, SolveResponse
from repro.serve.cache import PlanCache
from repro.serve.loadgen import LoadSpec, generate_requests
from repro.serve.profile import (
    BATCH_MEMBER_DISPATCH_SECONDS,
    DISPATCH_OVERHEAD_SECONDS,
)
from repro.serve.scheduler import (
    BatchRecord,
    DeviceFaultEvent,
    MicroBatchScheduler,
)
from repro.serve.service import (
    DRAIN_LIMIT_FACTOR,
    ServiceConfig,
    ServingReport,
    build_profiles,
    run_service,
)
from repro.sparse.io import write_matrix_market
from repro.telemetry import Telemetry


def queue_order(queued):
    return (queued.priority, queued.request.arrival_s,
            queued.request.request_id)


class SortingAdmission(AdmissionController):
    """Append, sort the whole queue, and preempt the ``max`` entry."""

    def offer(self, request, now):
        if deadline_lapsed(request.deadline_s, now):
            self.shed_deadline += 1
            tm.count("serve.shed.deadline")
            return AdmissionVerdict.SHED_DEADLINE, None
        victim = None
        if len(self.queue) >= self.capacity:
            candidate = max(self.queue, key=queue_order)
            if candidate.priority <= int(request.priority):
                self.shed_full += 1
                tm.count("serve.shed.queue_full")
                return AdmissionVerdict.SHED_QUEUE_FULL, None
            self.queue.remove(candidate)
            victim = candidate
            self.preemptions += 1
            tm.count("serve.preemptions")
        self.queue.append(QueuedRequest(request=request, admitted_s=now))
        self.queue.sort(key=queue_order)
        tm.count("serve.admitted")
        return AdmissionVerdict.ADMITTED, victim

    def expire(self, now):
        """Scan the whole queue on every tick."""
        if not self.queue:
            return []
        lapsed = [
            q for q in self.queue if deadline_lapsed(q.request.deadline_s, now)
        ]
        if lapsed:
            keep = {id(q) for q in lapsed}
            self.queue = [q for q in self.queue if id(q) not in keep]
            tm.count("serve.expired", len(lapsed))
        return lapsed


# -- the dispatch helpers, frozen ---------------------------------------
# Copies of MicroBatchScheduler.has_free_slot, group_key, _form_groups,
# _ripe, _pick_slot and _serve_batch as they stood before dispatch placed
# each batch in one pass.  They read and write the scheduler's state but
# never call the helpers that replaced them.


def has_free_slot(scheduler, now):
    return any(slot.busy_until_s <= now for slot in scheduler.slots)


def group_key(scheduler, queued):
    profile = scheduler.profiles[queued.request.source]
    default_class = FPGA if scheduler.fleet.total_slots > 0 else GPU
    if isinstance(profile, str):
        return ("error", queued.request.source, default_class)
    placed = scheduler.placement_for(queued.request.source)
    device_class = placed.device_class if placed else default_class
    if scheduler.cache is not None and scheduler.cache.peek(
        profile.fingerprint
    ):
        return ("plan", profile.plan_signature, device_class)
    return ("fp", profile.fingerprint, device_class)


def form_groups(scheduler, queue):
    groups = {}
    order = []
    for queued in queue:
        key = group_key(scheduler, queued)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(queued)
    return [(key, groups[key]) for key in order]


def ripe(scheduler, members, now):
    if len(members) >= scheduler.max_batch:
        return True
    if members[0].request.priority is Priority.INTERACTIVE:
        return True
    eldest = min(q.admitted_s for q in members)
    return now - eldest >= scheduler.batch_window_s


def pick_slot(scheduler, now, signature, device_class):
    free = [
        slot
        for slot in scheduler.slots
        if slot.device_class == device_class and slot.busy_until_s <= now
    ]
    if not free:
        return None
    if signature is not None:
        for slot in free:
            if slot.resident_signature == signature:
                return slot
    return min(free, key=lambda slot: slot.index)


def serve_batch(scheduler, slot, members, profile, now, batch_id):
    cache = scheduler.cache
    signature = profile.plan_signature
    config_load = cache is None or slot.resident_signature != signature
    on_gpu = slot.device_class == GPU
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
    if not batch_warm and scheduler.fleet.cpu_assist:
        tm.count("placement.cpu_assist_offloads")
    responses = []
    for position, queued in enumerate(members):
        cold_member = not batch_warm and position == 0
        dispatch = (
            DISPATCH_OVERHEAD_SECONDS
            if position == 0
            else BATCH_MEMBER_DISPATCH_SECONDS
        )
        service = dispatch + profile.member_service_s(
            slot.device_class, cold_member, scheduler.fleet.cpu_assist
        )
        start = cursor
        cursor += service
        responses.append(
            SolveResponse(
                request_id=queued.request.request_id,
                source=queued.request.source,
                outcome=Outcome.COMPLETED,
                priority=queued.request.priority,
                arrival_s=queued.request.arrival_s,
                finish_s=cursor,
                queue_s=start - queued.request.arrival_s,
                service_s=service,
                cache_hit=batch_warm,
                batch_id=batch_id,
                instance=slot.index,
                converged=profile.converged,
                solver_sequence=profile.solver_sequence,
                iterations=profile.iterations,
            )
        )
    tm.count(
        "serve.cache_hits" if batch_warm else "serve.cache_misses",
        len(members),
    )
    slot.resident_signature = signature
    slot.busy_seconds += cursor - now
    slot.busy_until_s = cursor
    slot.batches += 1
    scheduler.batches.append(
        BatchRecord(
            batch_id=batch_id,
            size=len(members),
            instance=slot.index,
            start_s=now,
            end_s=cursor,
            cold=not batch_warm,
            config_load=config_load,
            device_class=slot.device_class,
        )
    )
    tm.count("serve.batches")
    if scheduler.fleet.gpu_tenants > 0:
        if on_gpu:
            tm.count("placement.gpu_batches")
        else:
            tm.count("placement.fpga_batches")
    return responses


def grouping_dispatch(scheduler, queue, now, next_batch_id):
    """Form the groups on every tick, whatever the queue holds."""
    scheduler.apply_device_faults(now)
    remaining = list(queue)
    responses = []
    while remaining and has_free_slot(scheduler, now):
        dispatched = False
        for key, members in form_groups(scheduler, remaining):
            if not ripe(scheduler, members, now):
                continue
            take = members[: scheduler.max_batch]
            profile = scheduler.profiles[take[0].request.source]
            signature = (
                profile.plan_signature
                if scheduler.cache is not None
                and not isinstance(profile, str)
                else None
            )
            slot = pick_slot(scheduler, now, signature, key[2])
            if slot is None:
                continue
            if isinstance(profile, str):
                responses.extend(scheduler._fail_batch(
                    slot, take, profile, now, next_batch_id))
            else:
                responses.extend(serve_batch(
                    scheduler, slot, take, profile, now, next_batch_id))
            next_batch_id += 1
            taken = {q.request.request_id for q in take}
            remaining = [
                q for q in remaining if q.request.request_id not in taken
            ]
            dispatched = True
            break
        if not dispatched:
            break
    return responses, remaining, next_batch_id


def shed(request, finish_s, detail):
    return SolveResponse(
        request_id=request.request_id,
        source=request.source,
        outcome=Outcome.SHED,
        priority=request.priority,
        arrival_s=request.arrival_s,
        finish_s=finish_s,
        detail=detail,
    )


def every_tick_service(requests, config, build=build_profiles):
    """Visit every tick from zero until the log and the queue are done."""
    requests = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    collector = Telemetry()
    with collector.activate():
        profiles = build(
            [r.source for r in requests], AcamarConfig(),
            workers=config.workers,
        )
        cache = (
            PlanCache(capacity=config.cache_capacity)
            if config.cache_enabled else None
        )
        scheduler = MicroBatchScheduler(
            fleet=config.fleet, profiles=profiles, cache=cache,
            max_batch=config.max_batch,
            batch_window_s=config.batch_window_ms * 1e-3,
            device_faults=config.device_faults,
        )
        admission = SortingAdmission(capacity=config.queue_capacity)
        responses = []
        samples = []
        tick = config.tick_ms * 1e-3
        duration = requests[-1].arrival_s if requests else 0.0
        drain_limit = max(duration, tick) * DRAIN_LIMIT_FACTOR
        pointer = 0
        batch_id = 0
        step = 0
        while pointer < len(requests) or admission.queue:
            now = step * tick
            while (
                pointer < len(requests)
                and requests[pointer].arrival_s <= now
            ):
                request = requests[pointer]
                pointer += 1
                tm.count("serve.requests")
                verdict, victim = admission.offer(request, request.arrival_s)
                if victim is not None:
                    responses.append(shed(
                        victim.request, request.arrival_s,
                        "preempted: displaced by higher priority"))
                if verdict is not AdmissionVerdict.ADMITTED:
                    responses.append(
                        shed(request, request.arrival_s, verdict.value))
            for lapsed in admission.expire(now):
                request = lapsed.request
                responses.append(SolveResponse(
                    request_id=request.request_id,
                    source=request.source,
                    outcome=Outcome.EXPIRED,
                    priority=request.priority,
                    arrival_s=request.arrival_s,
                    finish_s=request.deadline_s or now,
                    queue_s=(request.deadline_s or now) - request.arrival_s,
                    detail="deadline expired in queue",
                ))
            batch, admission.queue, batch_id = grouping_dispatch(
                scheduler, admission.queue, now, batch_id
            )
            responses.extend(batch)
            samples.append(admission.depth())
            step += 1
            if now > drain_limit and admission.queue:
                for queued in admission.queue:
                    responses.append(
                        shed(queued.request, now, "drain limit reached"))
                    tm.count("serve.shed.drain_limit")
                admission.queue = []
                break
        for response in responses:
            if response.outcome is Outcome.COMPLETED:
                tm.observe("serve.latency_ms", response.latency_s * 1e3)
    responses.sort(key=lambda r: (r.finish_s, r.request_id))
    horizon = max(
        [duration]
        + [slot.busy_until_s for slot in scheduler.slots]
        + [r.finish_s for r in responses]
    ) if (requests or responses) else 0.0
    return ServingReport(
        config=config, requests=list(requests), responses=responses,
        queue_depth_samples=samples, scheduler=scheduler,
        admission=admission, cache=cache, horizon_s=horizon,
        counters=dict(collector.counters), telemetry=collector,
    )


SIX = tuple(dataset_keys()[:6])
EDGE_TICK_MS = 0.3


def tick_edge_log():
    """Lone arrivals exactly on a tick, one ulp after it and 1e-13 before.

    ``ceil(t / tick)`` overshoots the tick of ``105 * tick`` and ``210 *
    tick`` and undershoots that of ``nextafter(23 * tick)`` and
    ``nextafter(147 * tick)``; each arrival finds the queue empty, so the
    skip has to land on it.
    """
    tick = EDGE_TICK_MS * 1e-3
    arrivals = [
        *(k * tick for k in (40, 105, 210, 333)),
        *(math.nextafter(k * tick, math.inf) for k in (23, 147, 265)),
        *(k * tick - 1e-13 for k in (7, 300, 1000)),
    ]
    return [
        SolveRequest(request_id=i, source="Wa", arrival_s=t)
        for i, t in enumerate(sorted(arrivals))
    ]


TWIN = "wa-copy.mtx"


def twin_alternation_log():
    """``Wa`` and a Matrix Market copy of it, alternating with ``Li``.

    The copy (written to the working directory) has Wa's fingerprint
    under another source name, so the two share a batch only if every
    request's group key follows the cache.  Wa's key is first computed
    uncached (round 0), the copy's while Wa is cached (round 1).  At
    cache capacity 1 each ``Li`` evicts Wa and each later Wa evicts
    ``Li``.  A key kept across the ``put`` that cached Wa, or across one
    that evicted it, splits the pair.
    """
    write_matrix_market(load_matrix("Wa"), TWIN)
    rounds = [("Wa",), ("Wa", TWIN), ("Li",)] * 4
    requests = []
    for index, sources in enumerate(rounds):
        for source in sources:
            requests.append(
                SolveRequest(len(requests), source, index * 10e-3)
            )
    return requests


def gpu_busy_fpga_free_log():
    """Three GPU-placed structures ahead of two FPGA-placed ones.

    All five arrive together and ripen together; the one GPU tenant
    takes ``Wa`` and the groups behind it must skip ``Of`` and ``If``
    rather than stop, so ``Li`` and ``2C`` start on the free FPGA slots.
    """
    return [
        SolveRequest(5 * index + offset, source, index * 20e-3)
        for index in range(4)
        for offset, source in enumerate(("Wa", "Of", "If", "Li", "2C"))
    ]


def starts_by_batch(report):
    return {b.batch_id: b.start_s for b in report.scheduler.batches}


def fpga_passed_a_waiting_gpu_group(report):
    """Did an FPGA batch start before a GPU batch whose request was
    ahead of it in queue order?"""
    gpu_from = report.scheduler.fleet.total_slots
    start = starts_by_batch(report)
    done = report.completed
    return any(
        queue_order_of(g) < queue_order_of(f)
        and start[g.batch_id] > start[f.batch_id]
        for f in done if f.instance < gpu_from
        for g in done if g.instance >= gpu_from
    )


def queue_order_of(response):
    return response.priority, response.arrival_s, response.request_id


def interactive_behind_batch_log():
    """Batch-class requests wait out a 20 ms window; 2 ms later an
    interactive request for one of their structures arrives."""
    requests = []
    for index in range(5):
        t = index * 40e-3
        for source in ("Wa", "Li", "Fe"):
            requests.append(SolveRequest(len(requests), source, t))
        requests.append(SolveRequest(
            len(requests), "Li", t + 2e-3, Priority.INTERACTIVE))
    return requests


def interactive_pulled_older_members(report):
    """Did a batch headed by an interactive request take batch-class
    members before their own window ran out?"""
    members = {}
    for response in report.completed:
        members.setdefault(response.batch_id, []).append(response)
    start = starts_by_batch(report)
    window = report.config.batch_window_ms * 1e-3
    return any(
        {r.priority for r in batch} == {Priority.INTERACTIVE, Priority.BATCH}
        and start[batch_id] < min(
            r.arrival_s for r in batch if r.priority is Priority.BATCH
        ) + window
        for batch_id, batch in members.items()
    )


def failing_unsorted_log():
    log = generate_requests(LoadSpec(
        seed=9, duration_s=0.5, rate_rps=200.0,
        sources=("Wa", "Li", "bogus-key"),
    ))
    return log[::-1]


# name -> (request log, config, the path the case must reach)
CASES = {
    "repeat-heavy-600rps-seed1": (
        lambda: generate_requests(LoadSpec(
            seed=1, duration_s=2.0, rate_rps=600.0, mix="repeat-heavy")),
        ServiceConfig(),
        lambda report: len(report.completed) > 1000,
    ),
    "repeat-heavy-600rps-seed7": (
        lambda: generate_requests(LoadSpec(
            seed=7, duration_s=2.0, rate_rps=600.0, mix="repeat-heavy")),
        ServiceConfig(),
        lambda report: len(report.completed) > 1000,
    ),
    "bursty-overload-shed-and-preempt": (
        lambda: generate_requests(LoadSpec(
            seed=0, duration_s=1.0, rate_rps=600.0, mix="bursty",
            sources=("Wa", "Li"))),
        ServiceConfig(queue_capacity=4, fleet=FleetSpec(1, 1)),
        lambda report: report.admission.preemptions
        and report.admission.shed_full,
    ),
    "uniform-no-cache": (
        lambda: generate_requests(LoadSpec(
            seed=2, duration_s=1.0, rate_rps=300.0, mix="uniform",
            sources=SIX)),
        ServiceConfig(cache_enabled=False),
        lambda report: report.cache is None and report.completed,
    ),
    "3ms-deadlines-expire-under-burst": (
        lambda: generate_requests(LoadSpec(
            seed=3, duration_s=1.0, rate_rps=400.0, mix="bursty",
            deadline_ms=3.0, sources=SIX)),
        ServiceConfig(fleet=FleetSpec(1, 1)),
        lambda report: report.expired_count,
    ),
    "device-faults": (
        lambda: generate_requests(LoadSpec(
            seed=4, duration_s=1.0, rate_rps=300.0, sources=SIX)),
        ServiceConfig(device_faults=(
            DeviceFaultEvent(0.005, 1, 0.001),  # before the first arrival
            DeviceFaultEvent(0.1, 0, 0.05),
            DeviceFaultEvent(0.1 + 0.5e-3, 1, 0.02),  # the next tick
            DeviceFaultEvent(0.3, 0, 0.01),
            DeviceFaultEvent(5.0, 0, 0.1),  # after the last arrival
        )),
        lambda report: report.counters["serve.device_faults"] == 4,
    ),
    "gpu-tenants-cpu-assist-gpu-fault": (
        lambda: generate_requests(LoadSpec(
            seed=5, duration_s=1.0, rate_rps=300.0, mix="uniform",
            sources=SIX)),
        ServiceConfig(
            fleet=FleetSpec(devices=1, slots_per_device=2, gpu_tenants=2,
                            cpu_assist=True),
            device_faults=(DeviceFaultEvent(0.2, 0, 0.05, GPU),),
        ),
        lambda report: report.counters["serve.device_faults"] == 1
        and report.counters["placement.gpu_batches"],
    ),
    "window0-batch1-tick0.25": (
        lambda: generate_requests(LoadSpec(
            seed=6, duration_s=1.0, rate_rps=300.0, sources=SIX)),
        ServiceConfig(batch_window_ms=0.0, max_batch=1, tick_ms=0.25),
        lambda report: report.completed,
    ),
    "full-batches-before-the-window": (
        lambda: generate_requests(LoadSpec(
            seed=10, duration_s=0.5, rate_rps=400.0, sources=("Wa",))),
        ServiceConfig(max_batch=2, batch_window_ms=20.0),
        lambda report: report.completed,
    ),
    "tick2-cache2-evictions": (
        lambda: generate_requests(LoadSpec(
            seed=8, duration_s=1.0, rate_rps=300.0, mix="uniform",
            sources=SIX)),
        ServiceConfig(tick_ms=2.0, cache_capacity=2),
        lambda report: report.cache.stats.evictions,
    ),
    "drain-limit": (
        lambda: [SolveRequest(i, "Wa", 1e-4) for i in range(300)],
        ServiceConfig(queue_capacity=300, fleet=FleetSpec(1, 1)),
        lambda report: report.counters["serve.shed.drain_limit"],
    ),
    "failing-source-unsorted-log": (
        failing_unsorted_log,
        ServiceConfig(),
        lambda report: report.counters["serve.failed"],
    ),
    "tick0.3-arrival-edges": (
        tick_edge_log,
        ServiceConfig(tick_ms=EDGE_TICK_MS, batch_window_ms=0.0),
        lambda report: len(report.completed) == 10,
    ),
    "cache1-twin-sources-alternate": (
        twin_alternation_log,
        ServiceConfig(cache_capacity=1),
        lambda report: report.cache.stats.evictions >= 6
        and sum(
            b.size == 2 and not b.cold for b in report.scheduler.batches
        ) == 4,
    ),
    "gpu-tenant-busy-fpga-slots-free": (
        gpu_busy_fpga_free_log,
        ServiceConfig(fleet=FleetSpec(
            devices=1, slots_per_device=2, gpu_tenants=1)),
        fpga_passed_a_waiting_gpu_group,
    ),
    "batch1-window0-mixed-fleet": (
        lambda: generate_requests(LoadSpec(
            seed=11, duration_s=1.0, rate_rps=400.0, mix="repeat-heavy")),
        ServiceConfig(
            max_batch=1, batch_window_ms=0.0,
            fleet=FleetSpec(devices=1, slots_per_device=2, gpu_tenants=1),
        ),
        lambda report: report.completed
        and {b.size for b in report.scheduler.batches} == {1}
        and report.counters["placement.gpu_batches"]
        and report.counters["placement.fpga_batches"],
    ),
    "interactive-behind-older-batch-groups": (
        interactive_behind_batch_log,
        ServiceConfig(batch_window_ms=20.0),
        interactive_pulled_older_members,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_every_tick_loop(name, tmp_path, monkeypatch):
    make_requests, config, reaches = CASES[name]
    monkeypatch.chdir(tmp_path)  # for the sources a case writes
    requests = make_requests()
    report = run_service(requests, config)
    expected = every_tick_service(requests, config)
    assert report.to_json() == expected.to_json()
    assert report.queue_depth_samples == expected.queue_depth_samples
    assert list(report.counters.items()) == list(expected.counters.items())
    assert report.requests == expected.requests
    assert reaches(report)


# -- admission: insort and queue[-1] against sort and max ---------------

offers = st.lists(
    st.tuples(
        st.sampled_from(list(Priority)),
        st.sampled_from([0.0, 1e-3, 2e-3, 5e-3]),  # many equal arrivals
    ),
    min_size=1,
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(offers=offers, capacity=st.integers(1, 6), ids=st.randoms())
def test_admission_matches_sort_and_max(offers, capacity, ids):
    order = list(range(len(offers)))
    ids.shuffle(order)  # ids need not follow arrival order
    controller = AdmissionController(capacity=capacity)
    oracle = SortingAdmission(capacity=capacity)
    for rid, (priority, arrival) in zip(order, offers):
        request = SolveRequest(rid, "Wa", arrival, priority)
        got = controller.offer(request, arrival)
        want = oracle.offer(request, arrival)
        assert got == want
        assert controller.queue == oracle.queue
    assert (controller.shed_full, controller.preemptions) == (
        oracle.shed_full, oracle.preemptions)


# -- random logs and configurations against the every-tick loop ---------


@pytest.fixture(scope="module")
def profiled(tmp_path_factory):
    """Sources for random logs and a ``build_profiles`` that profiles
    them once for the whole module: Wa and a copy of it under another
    name (same fingerprint), Li on the FPGA and Of on a GPU tenant of a
    mixed fleet, and a source that fails to profile."""
    twin = tmp_path_factory.mktemp("twin") / TWIN
    write_matrix_market(load_matrix("Wa"), twin)
    sources = ("Wa", str(twin), "Li", "Of", "bogus-key")
    profiles = build_profiles(sources, AcamarConfig())

    def cached(requested, *args, **kwargs):
        return {source: profiles[source] for source in dict.fromkeys(requested)}

    return sources, cached


def grid(count, step):
    return st.integers(0, count).map(lambda k: k * step)


@st.composite
def logs_and_configs(draw, sources):
    requests = []
    for rid in range(draw(st.integers(1, 24))):
        arrival = draw(grid(40, 0.25e-3))
        deadline = draw(st.none() | grid(40, 0.25e-3).map(
            lambda d, arrival=arrival: arrival + d))
        requests.append(SolveRequest(
            rid, draw(st.sampled_from(sources)), arrival,
            draw(st.sampled_from(list(Priority))), deadline))
    slots = draw(st.integers(0, 2))
    faults = draw(st.lists(st.builds(
        DeviceFaultEvent,
        at_s=grid(40, 0.25e-3),
        slot=st.integers(0, 3),
        outage_s=st.sampled_from([0.0, 0.5e-3, 2e-3, 5e-3]),
        device_class=st.sampled_from([FPGA, GPU]),
    ), max_size=3))
    config = ServiceConfig(
        queue_capacity=draw(st.integers(1, 6)),
        max_batch=draw(st.integers(1, 4)),
        batch_window_ms=draw(st.sampled_from([0.0, 0.5, 1.0, 3.0])),
        tick_ms=draw(st.sampled_from([0.25, 0.5, 1.0])),
        cache_enabled=draw(st.booleans()),
        cache_capacity=draw(st.integers(1, 3)),
        fleet=FleetSpec(
            devices=1,
            slots_per_device=slots,
            gpu_tenants=draw(st.integers(0 if slots else 1, 2)),
            cpu_assist=draw(st.booleans()),
        ),
        device_faults=tuple(faults),
    )
    return requests, config


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_random_logs_match_every_tick_loop(profiled, data):
    sources, cached = profiled
    requests, config = data.draw(logs_and_configs(sources))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(service, "build_profiles", cached)
        report = run_service(requests, config)
    expected = every_tick_service(requests, config, build=cached)
    assert report.to_json() == expected.to_json()
    assert report.queue_depth_samples == expected.queue_depth_samples
    assert list(report.counters.items()) == list(expected.counters.items())
