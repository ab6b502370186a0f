"""The serving simulator against its plain tick loop: differential tests.

``run_service`` skips the ticks on which its queue is empty and nothing
arrives or faults, ``MicroBatchScheduler.dispatch`` returns early on a
tick that cannot dispatch, and ``AdmissionController.offer`` inserts in
log time.  The straightforward versions they replaced are kept here as
the oracle: a loop that visits every tick, a dispatch that forms groups
on every tick, and an offer that appends, sorts the whole queue and
takes the preemption victim with ``max``.  Reports must be byte for byte
equal, with the depth samples and the counters in order.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry as tm
from repro.config import AcamarConfig
from repro.datasets.suite import dataset_keys
from repro.fpga.multitenancy import FleetSpec
from repro.placement import GPU
from repro.serve.admission import (
    AdmissionController,
    AdmissionVerdict,
    QueuedRequest,
    deadline_unmeetable,
)
from repro.serve.api import Outcome, Priority, SolveRequest, SolveResponse
from repro.serve.cache import PlanCache
from repro.serve.loadgen import LoadSpec, generate_requests
from repro.serve.scheduler import DeviceFaultEvent, MicroBatchScheduler
from repro.serve.service import (
    DRAIN_LIMIT_FACTOR,
    ServiceConfig,
    ServingReport,
    build_profiles,
    run_service,
)
from repro.telemetry import Telemetry


def queue_order(queued):
    return (queued.priority, queued.request.arrival_s,
            queued.request.request_id)


class SortingAdmission(AdmissionController):
    """Append, sort the whole queue, and preempt the ``max`` entry."""

    def offer(self, request, now):
        if deadline_unmeetable(
            request.deadline_s, now, self.min_service_estimate_s
        ):
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


def grouping_dispatch(scheduler, queue, now, next_batch_id):
    """Form the groups on every tick, whatever the queue holds."""
    scheduler.apply_device_faults(now)
    remaining = list(queue)
    responses = []
    while remaining and scheduler.has_free_slot(now):
        dispatched = False
        for key, members in scheduler._form_groups(remaining):
            if not scheduler._ripe(members, now):
                continue
            take = members[: scheduler.max_batch]
            profile = scheduler.profiles[take[0].request.source]
            signature = (
                profile.plan_signature
                if scheduler.cache is not None
                and not isinstance(profile, str)
                else None
            )
            slot = scheduler._pick_slot(now, signature, key[2])
            if slot is None:
                continue
            if isinstance(profile, str):
                responses.extend(scheduler._fail_batch(
                    slot, take, profile, now, next_batch_id))
            else:
                responses.extend(scheduler._serve_batch(
                    slot, take, profile, now, next_batch_id))
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


def every_tick_service(requests, config):
    """Visit every tick from zero until the log and the queue are done."""
    requests = sorted(requests, key=lambda r: (r.arrival_s, r.request_id))
    collector = Telemetry()
    with collector.activate():
        profiles = build_profiles(
            [r.source for r in requests], AcamarConfig(),
            workers=config.workers, seed=config.profile_seed,
            collector=collector,
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
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_every_tick_loop(name):
    make_requests, config, reaches = CASES[name]
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
