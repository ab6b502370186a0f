"""Row-set partitioning feeding the Fine-Grained Reconfiguration unit.

The Row Length Trace unit partitions the rows of ``A`` into ``SamplingRate``
sets (Eq. 8/9) and computes the average NNZ/row of each set, which becomes
the set's optimal unroll factor (Eq. 7).  This module provides that
partitioning.
"""

from __future__ import annotations

from repro.errors import ConfigurationError


def partition_row_sets(n_rows: int, sampling_rate: int) -> list[tuple[int, int]]:
    """Split ``n_rows`` into ``sampling_rate`` contiguous row sets.

    Mirrors Eq. 9: ``set_size = n_rows / sampling_rate``.  When the division
    is not exact the first sets absorb the remainder, so every row belongs
    to exactly one set and set sizes differ by at most one.  If there are
    fewer rows than sets, each row forms its own set.
    """
    if sampling_rate < 1:
        raise ConfigurationError(f"sampling_rate must be >= 1, got {sampling_rate}")
    if n_rows <= 0:
        return []
    n_sets = min(sampling_rate, n_rows)
    base, remainder = divmod(n_rows, n_sets)
    bounds: list[tuple[int, int]] = []
    start = 0
    for set_index in range(n_sets):
        size = base + (1 if set_index < remainder else 0)
        bounds.append((start, start + size))
        start += size
    return bounds
