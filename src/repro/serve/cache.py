"""Freshness-keyed response cache for the read endpoints.

Every cacheable response is a pure function of ``(endpoint, params,
freshness token)``.  Invalidation is per entry: each entry remembers
the freshness token its endpoint depended on when it was stored, and a
lookup hits only if the endpoint's *current* token still matches.  The
service derives tokens per endpoint — ``datasets`` bodies are static
(token never moves), ``flagged`` bodies change only when the online
detector actually emits a cluster (its change ``version``), and
``metrics`` bodies track the watermark — so an ingest batch that flags
nothing new evicts no query response.

Eviction is FIFO over insertion order, which is deterministic under the
virtual-time loop's deterministic request schedule; hit/miss/eviction
counts land in ``serve.cache_*`` metrics for the bench to pin.  A stale
entry found at lookup is dropped in place and counted in
``serve.cache_invalidations``.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Mapping, Optional, Tuple

from repro.checkpointed import Checkpointed
from repro.obs import NULL_OBS, LabelKeys, Observability

CacheKey = Tuple[str, Tuple[Tuple[str, str], ...]]


#: Entries the cache holds before FIFO eviction starts.
MAX_ENTRIES = 512


def params_key(params: Mapping[str, object]) -> Tuple[Tuple[str, str], ...]:
    """Canonical hashable form of a request's params (order-free)."""
    return tuple(sorted((str(k), str(v)) for k, v in params.items()))


class WatermarkCache(Checkpointed):
    """Response cache with per-entry invalidation."""

    #: The entries go in insertion order (FIFO eviction depends on it).
    #: Bodies are JSON-shaped response dicts; callers never compare
    #: them structurally after a restore, only replay them, so the
    #: tuple->list laundering of a JSON round trip is harmless.
    _STATE = ("hits", "misses", "evictions", "invalidations", "_entries")
    #: key -> (freshness token at store time, body).
    _entries: OrderedDict[CacheKey, Tuple[int, object]]

    def __init__(self, obs: Optional[Observability] = None) -> None:
        self.obs = obs or NULL_OBS
        self._entries = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0
        self._endpoint_keys = LabelKeys("endpoint")

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, endpoint: str, params: Mapping[str, object],
               token: int) -> Tuple[bool, object]:
        """``(hit, body)``; body is only meaningful when hit is True.

        ``token`` is the endpoint's current freshness token (the
        service's call).
        """
        key = (endpoint, params_key(params))
        entry = self._entries.get(key)
        if entry is not None:
            stored_token, body = entry
            if stored_token == token:
                self.hits += 1
                self.obs.metrics.inc_keyed("serve.cache_hits",
                                           self._endpoint_keys[endpoint])
                return True, body
            # Stale: drop in place so the slot is reused by the fresh
            # store that follows this miss.
            del self._entries[key]
            self.invalidations += 1
            self.obs.metrics.inc("serve.cache_invalidations")
        self.misses += 1
        self.obs.metrics.inc_keyed("serve.cache_misses",
                                   self._endpoint_keys[endpoint])
        return False, None

    def store(self, endpoint: str, params: Mapping[str, object],
              token: int, body: object) -> None:
        key = (endpoint, params_key(params))
        self._entries[key] = (token, body)
        if len(self._entries) > MAX_ENTRIES:
            self._entries.popitem(last=False)
            self.evictions += 1
            self.obs.metrics.inc("serve.cache_evictions")

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
