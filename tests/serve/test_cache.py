"""Tests for structure fingerprints and the bounded plan cache."""

import numpy as np
import pytest

from repro import Acamar
from repro.datasets import poisson_2d
from repro.errors import ConfigurationError
from repro.serve.cache import PlanCache, plan_signature
from repro.sparse.csr import CSRMatrix


class TestStructureFingerprint:
    def test_pattern_determines_fingerprint(self):
        matrix = poisson_2d(10).matrix
        shifted = CSRMatrix(
            matrix.shape,
            matrix.indptr.copy(),
            matrix.indices.copy(),
            matrix.data * 3.0,  # same pattern, different values
        )
        assert matrix.structure_fingerprint() == shifted.structure_fingerprint()

    def test_different_patterns_differ(self):
        assert (
            poisson_2d(10).matrix.structure_fingerprint()
            != poisson_2d(11).matrix.structure_fingerprint()
        )

    def test_stable_across_index_dtypes(self):
        matrix = poisson_2d(8).matrix
        widened = CSRMatrix(
            matrix.shape,
            matrix.indptr.astype(np.int32),
            matrix.indices.astype(np.int32),
            matrix.data,
        )
        assert matrix.structure_fingerprint() == widened.structure_fingerprint()


class TestPlanSignature:
    def test_equal_plans_share_signature(self):
        matrix = poisson_2d(10).matrix
        a = Acamar().plan(matrix)
        b = Acamar().plan(matrix)
        assert plan_signature(a) == plan_signature(b)

    def test_different_structures_differ(self):
        a = Acamar().plan(poisson_2d(10).matrix)
        b = Acamar().plan(poisson_2d(24).matrix)
        assert plan_signature(a) != plan_signature(b)


class TestPlanCache:
    def test_capacity_validated(self):
        with pytest.raises(ConfigurationError):
            PlanCache(capacity=0)

    def test_get_records_hits_and_misses(self):
        cache = PlanCache(capacity=4)
        assert cache.get("absent") is False
        cache.put("a")
        assert cache.get("a") is True
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_lru_eviction_order(self):
        cache = PlanCache(capacity=2)
        cache.put("a")
        cache.put("b")
        cache.get("a")  # refresh: "b" is now least recently used
        cache.put("c")
        assert cache.stats.evictions == 1
        assert len(cache) == 2
        assert cache.get("b") is False
        assert cache.get("a") is True

    def test_put_existing_updates_in_place(self):
        # A repeated put refreshes the fingerprint's LRU position
        # without adding a second record or evicting anything.
        cache = PlanCache(capacity=2)
        cache.put("a")
        cache.put("b")
        cache.put("a")
        assert len(cache) == 2
        assert cache.stats.evictions == 0
        cache.put("c")
        assert cache.get("b") is False
        assert cache.get("a") is True
