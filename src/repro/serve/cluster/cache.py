"""Tiered plan cache: local LRU per fleet over a cluster-wide directory.

Single-fleet serving has one :class:`~repro.serve.cache.PlanCache`; a
cluster splits it into an explicit cost ladder, charged in *modeled*
time against the virtual clock:

``local hit``
    The owning fleet's bounded LRU holds the fingerprint.  Free — the
    warm path the router's fingerprint affinity is designed to keep hot.

``remote hit``
    Some other fleet published the fingerprint to the cluster
    directory.  The batch pays one :data:`REMOTE_FETCH_MS` transfer
    (host-tier RPC + plan blob copy, the CPU–FPGA division of labor
    keeps this off-device) and the fingerprint is installed into the
    local LRU so the next hit is free.

``miss``
    Nobody has analyzed this structure.  The first request in the batch
    pays the full cold solve (analysis + fallback attempts), then the
    fingerprint is published to the directory and installed locally.

Both tiers hold fingerprints only: the decisions a hit reuses are in
the source's :class:`~repro.serve.profile.SolveProfile`.  The directory
is deliberately unbounded while local tiers are bounded LRUs: it models
a replicated metadata service whose entries are tiny, while local tiers
model finite on-host plan storage.  Eviction from a local tier never
loses work — the directory still has the fingerprint, so the penalty is
one remote fetch, not a re-analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.serve.cache import PlanCache

LOCAL_HIT = "local"
REMOTE_HIT = "remote"
MISS = "miss"

REMOTE_FETCH_MS = 0.25
"""Modeled cost of one remote hit, in ms."""


@dataclass
class TierStats:
    """Hit-ladder counts, kept per fleet and aggregated cluster-wide."""

    local_hits: int = 0
    remote_hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.local_hits + self.remote_hits + self.misses

    @property
    def local_hit_rate(self) -> float:
        total = self.lookups
        return self.local_hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "local_hits": self.local_hits,
            "remote_hits": self.remote_hits,
            "misses": self.misses,
            "local_hit_rate": round(self.local_hit_rate, 9),
        }


class TieredPlanCache:
    """Cluster directory plus per-fleet local LRUs with a cost ladder."""

    def __init__(self, local_capacity: int = 256) -> None:
        self.local_capacity = local_capacity
        self.directory: set[str] = set()
        self.stats = TierStats()
        self._local: dict[int, PlanCache] = {}

    def attach_fleet(self, fleet_id: int) -> None:
        """Give ``fleet_id`` an empty local tier (idempotent)."""
        if fleet_id not in self._local:
            self._local[fleet_id] = PlanCache(capacity=self.local_capacity)

    def detach_fleet(self, fleet_id: int) -> None:
        """Drop a drained fleet's local tier; the directory keeps every
        published fingerprint, so nothing re-pays analysis."""
        self._local.pop(fleet_id, None)

    def local_entries(self, fleet_id: int) -> int:
        cache = self._local.get(fleet_id)
        return len(cache) if cache is not None else 0

    def local_evictions(self) -> int:
        return sum(c.stats.evictions for c in self._local.values())

    def lookup(self, fleet_id: int, fingerprint: str) -> tuple[str, float]:
        """Resolve one fingerprint at ``fleet_id``.

        Returns ``(tier, charge_s)`` where ``tier`` is one of
        :data:`LOCAL_HIT` / :data:`REMOTE_HIT` / :data:`MISS` and
        ``charge_s`` is the modeled time the ladder adds to the batch.
        Remote hits install the fingerprint locally as a side effect.
        """
        local = self._local.get(fleet_id)
        if local is None:  # inline attach_fleet: this path is per-batch
            local = self._local[fleet_id] = PlanCache(
                capacity=self.local_capacity
            )
        if local.get(fingerprint):
            self.stats.local_hits += 1
            return LOCAL_HIT, 0.0
        if fingerprint in self.directory:
            self.stats.remote_hits += 1
            local.put(fingerprint)
            return REMOTE_HIT, REMOTE_FETCH_MS * 1e-3
        self.stats.misses += 1
        return MISS, 0.0

    def publish(self, fleet_id: int, fingerprint: str) -> None:
        """After a cold solve: directory insert + local install."""
        self.attach_fleet(fleet_id)
        self.directory.add(fingerprint)
        self._local[fleet_id].put(fingerprint)

    def as_dict(self) -> dict[str, Any]:
        return {
            "directory_entries": len(self.directory),
            "local_evictions": self.local_evictions(),
            "lookups": self.stats.as_dict(),
        }
