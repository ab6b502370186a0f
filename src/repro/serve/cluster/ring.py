"""Consistent-hash ring: fingerprint → fleet placement with bounded remap.

The router's job is *plan-cache affinity*: requests carrying the same
CSR structure fingerprint should keep landing on the same fleet so its
local :class:`~repro.serve.cache.PlanCache` stays warm.  A modulo over
the live fleet count would reshuffle nearly every fingerprint on any
membership change; a consistent-hash ring remaps only the arc a joining
(or leaving) fleet claims — in expectation ``K / N`` of ``K``
fingerprints when ``N`` fleets remain — so a drain or a join costs a
bounded cold-miss burst instead of a cluster-wide cache wipe.

Construction is the textbook scheme: each fleet contributes
:data:`VNODES` tokens (SHA-256 of ``"fleet:{id}:{replica}"``, first 8 bytes
as a big-endian integer) onto a ``2^64`` ring; a key hashes the same way
and is owned by the first token clockwise.  Everything is integer
arithmetic over sorted lists — no floats, no process-salted ``hash()``
— so placement is byte-stable across machines and Python versions.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.errors import ConfigurationError

VNODES = 64
"""Tokens per fleet.  More virtual nodes smooth the arc-length spread
(load balance across fleets) at the cost of a longer sorted token list."""


def _token(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class HashRing:
    """Consistent-hash ring mapping string keys to integer fleet ids."""

    def __init__(self) -> None:
        self._tokens: list[int] = []
        self._owners: list[int] = []
        self._members: set[int] = set()

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, fleet_id: int) -> bool:
        return fleet_id in self._members

    @property
    def members(self) -> tuple[int, ...]:
        return tuple(sorted(self._members))

    def add(self, fleet_id: int) -> None:
        if fleet_id in self._members:
            return
        self._members.add(fleet_id)
        for replica in range(VNODES):
            token = _token(f"fleet:{fleet_id}:{replica}")
            at = bisect.bisect_left(self._tokens, token)
            # SHA-256 collisions across distinct vnode labels are not a
            # practical concern; insertion order still breaks any tie
            # deterministically because `at` is a pure function of state.
            self._tokens.insert(at, token)
            self._owners.insert(at, fleet_id)

    def remove(self, fleet_id: int) -> None:
        if fleet_id not in self._members:
            return
        self._members.discard(fleet_id)
        keep = [
            (token, owner)
            for token, owner in zip(self._tokens, self._owners)
            if owner != fleet_id
        ]
        self._tokens = [token for token, _ in keep]
        self._owners = [owner for _, owner in keep]

    def owner(self, key: str) -> int:
        """Fleet id owning ``key``; raises if the ring is empty."""
        if not self._tokens:
            raise ConfigurationError(
                "cannot route on an empty hash ring"
            )
        at = bisect.bisect_right(self._tokens, _token(key))
        if at == len(self._tokens):
            at = 0
        return self._owners[at]

    def placement(self, keys: list[str]) -> dict[str, int]:
        """Owner of every key — the router's per-membership route map."""
        return {key: self.owner(key) for key in keys}
