"""Tests for row-set partitioning (Eq. 8-9)."""

import pytest

from repro.errors import ConfigurationError
from repro.sparse.stats import partition_row_sets


class TestPartitioning:
    def test_even_split(self):
        bounds = partition_row_sets(100, 4)
        assert bounds == [(0, 25), (25, 50), (50, 75), (75, 100)]

    def test_remainder_spread_over_first_sets(self):
        bounds = partition_row_sets(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]
        sizes = [hi - lo for lo, hi in bounds]
        assert max(sizes) - min(sizes) <= 1

    def test_covers_all_rows_exactly_once(self):
        for n, rate in [(37, 5), (4096, 32), (100, 100), (7, 32)]:
            bounds = partition_row_sets(n, rate)
            assert bounds[0][0] == 0
            assert bounds[-1][1] == n
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert hi == lo

    def test_more_sets_than_rows(self):
        bounds = partition_row_sets(3, 32)
        assert bounds == [(0, 1), (1, 2), (2, 3)]

    def test_zero_rows(self):
        assert partition_row_sets(0, 8) == []

    def test_invalid_sampling_rate(self):
        with pytest.raises(ConfigurationError):
            partition_row_sets(10, 0)
