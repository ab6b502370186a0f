"""Both serving engines on one load: what they must agree on.

The single-fleet engine (:func:`repro.serve.service.run_loadtest`) and
the cluster engine run as one fleet of the same shape
(:func:`repro.serve.cluster.service.run_cluster_loadtest`, autoscaler
off) serve the same ``LoadSpec`` rows.  With queues too deep to shed,
both must serve every request and analyze each structure once.  The
differences that remain between the engines (and the measured gap they
make) are listed in ``docs/serving.md``, "Two engines, one load".
"""

import pytest

from repro.serve import (
    ClusterConfig,
    LoadSpec,
    ServiceConfig,
    run_cluster_loadtest,
    run_loadtest,
)


@pytest.mark.parametrize("mix, rate_rps", [
    ("uniform", 300.0),
    ("repeat-heavy", 300.0),
    ("bursty", 200.0),
])
def test_one_fleet_cluster_agrees_with_the_single_fleet(mix, rate_rps):
    spec = LoadSpec(seed=1, duration_s=5.0, rate_rps=rate_rps, mix=mix)
    single = run_loadtest(spec, ServiceConfig(queue_capacity=4096))
    cluster = run_cluster_loadtest(spec, ClusterConfig(
        initial_fleets=1, slots_per_fleet=4, max_batch=8,
        batch_fill_ms=1.0, queue_capacity=4096, autoscale=False,
    ))
    generated = len(single.requests)
    assert cluster.generated == generated
    assert len(single.completed) == cluster.completed == generated
    assert single.unaccounted == cluster.unaccounted == 0
    # One analysis per structure: all 25 Table II stand-ins miss once.
    assert single.cache.stats.misses == cluster.cache.stats.misses == 25
