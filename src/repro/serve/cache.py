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
    Two matrices with different fingerprints can still share a
    signature; the scheduler batches on it because equal signatures mean
    the fabric needs no reconfiguration between their sweeps.

The cache itself is a bounded LRU: serving fleets run for weeks, so an
unbounded dict keyed by hashes is a slow memory leak.  Eviction only
costs a re-analysis on the next miss, never correctness.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any

from repro.errors import ConfigurationError

__all__ = [
    "CacheEntry",
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


@dataclass(frozen=True)
class CacheEntry:
    """What a fingerprint hit lets the service skip and reuse.

    The entry holds the *decisions* (solver choice and sequence, plan
    signature) plus the latency profile needed to charge device time —
    not the plan object itself, so entries stay small and picklable.
    """

    fingerprint: str
    plan_signature: str
    solver_sequence: tuple[str, ...]
    converged: bool
    iterations: int
    attempt_compute_s: tuple[float, ...]
    analysis_s: float

    @property
    def final_compute_s(self) -> float:
        """Device compute of the converging (final) attempt only."""
        return self.attempt_compute_s[-1] if self.attempt_compute_s else 0.0


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
    """Bounded LRU of :class:`CacheEntry` keyed by structure fingerprint."""

    capacity: int = 256
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError(
                f"cache capacity must be >= 1, got {self.capacity}"
            )
        self._entries: OrderedDict[str, CacheEntry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def peek(self, fingerprint: str) -> CacheEntry | None:
        """Look up without touching LRU order or hit/miss stats."""
        return self._entries.get(fingerprint)

    def get(self, fingerprint: str) -> CacheEntry | None:
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.stats.hits += 1
        return entry

    def put(self, entry: CacheEntry) -> None:
        if entry.fingerprint in self._entries:
            self._entries.move_to_end(entry.fingerprint)
            self._entries[entry.fingerprint] = entry
            return
        self._entries[entry.fingerprint] = entry
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
