"""Exact goldens for the modeled totals of two e2ebench workloads.

``e2ebench/workloads.py`` reports ``device_s`` for ``loadtest`` as the
single-fleet run's ``fleet.device_seconds`` and for ``dse-sweep`` as the
sum of every design point's ``device_seconds``.  Both run on the virtual
clock, so at seed 1 every figure below is exact; a change that moves one
changes the benchmark's modeled output and must say why.
"""

from repro.dse import demo_space, run_dse
from repro.serve import LoadSpec, ServiceConfig, run_loadtest


def test_loadtest_seed_1_totals():
    report = run_loadtest(
        LoadSpec(seed=1, duration_s=20.0, rate_rps=600.0, mix="repeat-heavy"),
        ServiceConfig(workers=1),
    )
    doc = report.as_dict(include_responses=False)
    assert doc["fleet"]["device_seconds"] == 42.284075612
    assert doc["requests"]["completed"] == 11947
    assert doc["batches"]["count"] == 10256
    assert doc["batches"]["config_loads"] == 6728
    assert doc["latency_ms"]["overall"]["p50"] == 6.259571
    assert doc["latency_ms"]["overall"]["p99"] == 21.853076
    lookups = doc["cache"]["lookups"]
    assert (lookups["hits"], lookups["misses"]) == (10231, 25)


def test_dse_sweep_seed_1_totals():
    doc = run_dse(demo_space(), seed=1).as_dict()
    points = doc["points"]
    assert len(points) == 64
    total = sum(point["metrics"]["device_seconds"] for point in points)
    assert round(total, 9) == 124.638084856
    assert len(doc["frontier"]) == 7
    assert doc["capacity"]["cheapest"]["fabric_mm2_seconds"] == 0.710674326
