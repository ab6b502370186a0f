"""Structure-fingerprint-keyed plan cache.

Acamar's per-matrix analysis — the Matrix Structure unit's property
checks and the Fine-Grained Reconfiguration unit's unroll planning — is
a pure function of the CSR *sparsity pattern*.  Serving traffic repeats
patterns heavily (the same discretized operator solved against many
right-hand sides), so the service keys a cache on a pattern hash:

``matrix.structure_fingerprint()``
    SHA-256 over the shape plus the canonical ``indptr``/``indices``
    arrays (as little-endian int64 bytes).  The hash lives on
    :class:`~repro.sparse.csr.CSRMatrix`, cached alongside the other
    lazy structure views, because the batched campaign grouper keys on
    it from *below* the serving layer.  Values are deliberately
    excluded: two matrices with equal structure and different data
    share the analysis verdict and the unroll plan, which depend only
    on row lengths and symmetry of the pattern.  Note the symmetry
    check the hardware performs compares *values* too; like the paper's
    own symmetric-proxy shortcut, a pattern-keyed hit accepts that a
    numerically asymmetric matrix with a symmetric pattern reuses the
    symmetric verdict and lets the Solver Modifier recover from any
    misprediction.

``plan_signature(plan)``
    SHA-256 over the per-set ``(start_row, stop_row, unroll)`` schedule.
    Slot residency is tracked by it: a batch whose signature matches
    the one a slot was last configured with needs no configuration load
    there.  Batches themselves group by fingerprint.

The cache itself is a bounded LRU of fingerprints: a hit only has to
record that the structure was analyzed, because every decision it lets
the service reuse — solver sequence, plan signature, the latency
profile — is already in the source's
:class:`~repro.serve.profile.SolveProfile`.  Serving fleets run for
weeks, so an unbounded set of hashes is a slow memory leak.  Eviction
only costs a re-analysis on the next miss, never correctness.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError

__all__ = [
    "CacheStats",
    "PlanCache",
    "plan_signature",
]


def plan_signature(plan: Any) -> str:
    """Hex SHA-256 of a :class:`ReconfigurationPlan`'s unroll schedule."""
    digest = hashlib.sha256()
    for row_set in plan.sets:
        digest.update(
            f"{row_set.start_row}:{row_set.stop_row}:{row_set.unroll};".encode()
        )
    return digest.hexdigest()


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 9),
        }


@dataclass
class PlanCache:
    """Bounded LRU of analyzed structure fingerprints."""

    capacity: int = 256
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError(
                f"cache capacity must be >= 1, got {self.capacity}"
            )
        self._entries: OrderedDict[str, None] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fingerprint: str) -> bool:
        if fingerprint not in self._entries:
            self.stats.misses += 1
            return False
        self._entries.move_to_end(fingerprint)
        self.stats.hits += 1
        return True

    def put(self, fingerprint: str) -> None:
        if fingerprint in self._entries:
            self._entries.move_to_end(fingerprint)
            return
        self._entries[fingerprint] = None
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
