"""Tiered plan cache: the local/remote/miss cost ladder."""

from repro.serve.cluster.cache import (
    LOCAL_HIT,
    MISS,
    REMOTE_FETCH_MS,
    REMOTE_HIT,
    TieredPlanCache,
    TierStats,
)

REMOTE_FETCH_S = REMOTE_FETCH_MS * 1e-3


class TestCostLadder:
    def test_miss_then_publish_then_local_hit(self):
        cache = TieredPlanCache(local_capacity=4)
        assert cache.lookup(1, "fp-a") == (MISS, 0.0)
        cache.publish(1, "fp-a")
        assert cache.lookup(1, "fp-a") == (LOCAL_HIT, 0.0)

    def test_remote_hit_charges_fetch_and_installs_locally(self):
        cache = TieredPlanCache(local_capacity=4)
        cache.publish(1, "fp-a")
        # Fleet 2 never saw fp-a: directory hit, one fetch charge...
        assert cache.lookup(2, "fp-a") == (REMOTE_HIT, REMOTE_FETCH_S)
        # ...and the install makes the next lookup free.
        assert cache.lookup(2, "fp-a") == (LOCAL_HIT, 0.0)

    def test_local_eviction_degrades_to_remote_not_miss(self):
        cache = TieredPlanCache(local_capacity=1)
        cache.publish(1, "fp-a")
        cache.publish(1, "fp-b")  # capacity 1: evicts fp-a locally
        assert cache.local_entries(1) == 1
        assert cache.lookup(1, "fp-a") == (REMOTE_HIT, REMOTE_FETCH_S)

    def test_publish_is_idempotent_in_the_directory(self):
        cache = TieredPlanCache(local_capacity=4)
        cache.publish(1, "fp-a")
        cache.publish(2, "fp-a")
        assert len(cache.directory) == 1


class TestFleetLifecycle:
    def test_lookup_auto_attaches_unknown_fleet(self):
        cache = TieredPlanCache(local_capacity=4)
        assert cache.lookup(7, "fp-x")[0] == MISS
        cache.publish(7, "fp-x")
        assert cache.lookup(7, "fp-x")[0] == LOCAL_HIT

    def test_detach_drops_local_tier_but_keeps_directory(self):
        cache = TieredPlanCache(local_capacity=4)
        cache.publish(3, "fp-a")
        cache.detach_fleet(3)
        assert cache.local_entries(3) == 0
        # A rejoin re-pays one fetch, never a re-analysis.
        tier, _ = cache.lookup(3, "fp-a")
        assert tier == REMOTE_HIT

    def test_misses_equal_publishes_equal_directory(self):
        # The cluster invariant: each unique fingerprint misses exactly
        # once cluster-wide, whatever fleet sees it first.
        cache = TieredPlanCache(local_capacity=8)
        for fleet_id, fp in [(1, "a"), (2, "b"), (1, "c"), (2, "a")]:
            tier, _ = cache.lookup(fleet_id, fp)
            if tier == MISS:
                cache.publish(fleet_id, fp)
        assert cache.stats.misses == len(cache.directory)


class TestStats:
    def test_ladder_counts(self):
        cache = TieredPlanCache(local_capacity=4)
        cache.lookup(1, "fp-a")            # miss
        cache.publish(1, "fp-a")
        cache.lookup(1, "fp-a")            # local
        cache.lookup(2, "fp-a")            # remote
        stats = cache.stats
        assert (stats.local_hits, stats.remote_hits, stats.misses) == (
            1, 1, 1
        )
        assert stats.lookups == 3
        assert stats.local_hit_rate == 1 / 3

    def test_empty_rate_is_zero(self):
        assert TierStats().local_hit_rate == 0.0
