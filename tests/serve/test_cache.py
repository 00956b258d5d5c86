"""Watermark cache: hits, per-entry invalidation, eviction."""

import pytest

from repro.obs import Observability
from repro.serve import WatermarkCache, params_key
from repro.serve.cache import MAX_ENTRIES


class TestParamsKey:
    def test_order_free_and_stringified(self):
        assert params_key({"b": 2, "a": 1}) == params_key({"a": "1", "b": "2"})

    def test_distinct_values_stay_distinct(self):
        assert params_key({"a": 1}) != params_key({"a": 2})


class TestWatermarkCache:
    def test_miss_then_hit_at_the_same_token(self):
        cache = WatermarkCache(Observability())
        hit, _ = cache.lookup("flagged", {"min_clusters": 2}, token=5)
        assert not hit
        cache.store("flagged", {"min_clusters": 2}, 5, {"devices": 3})
        hit, body = cache.lookup("flagged", {"min_clusters": 2}, 5)
        assert hit and body == {"devices": 3}
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.hit_rate() == 0.5

    def test_param_order_does_not_split_entries(self):
        cache = WatermarkCache(Observability())
        cache.store("datasets", {"op": "load", "name": "x"}, 1, "body")
        hit, body = cache.lookup("datasets", {"name": "x", "op": "load"}, 1)
        assert hit and body == "body"

    def test_unknown_policy_rejected(self):
        # Invalidation is always per entry: there is no policy to pick.
        with pytest.raises(TypeError, match="policy"):
            WatermarkCache(Observability(), policy="keyed")

    def test_fifo_eviction_drops_the_oldest_entry(self):
        cache = WatermarkCache(Observability())
        for n in range(MAX_ENTRIES):
            cache.store("datasets", {"n": n}, 0, n)
        assert cache.evictions == 0
        # A hit must NOT refresh recency: FIFO, not LRU.
        assert cache.lookup("datasets", {"n": 0}, 0)[0]
        cache.store("datasets", {"n": MAX_ENTRIES}, 0, MAX_ENTRIES)
        assert cache.evictions == 1
        assert len(cache) == MAX_ENTRIES
        assert not cache.lookup("datasets", {"n": 0}, 0)[0]
        assert cache.lookup("datasets", {"n": 1}, 0)[0]
        assert cache.lookup("datasets", {"n": MAX_ENTRIES}, 0)[0]


class TestKeyedPolicy:
    def test_stale_entry_dropped_without_touching_the_rest(self):
        cache = WatermarkCache(Observability())
        cache.store("flagged", {}, 1, "flagged@1")
        cache.store("datasets", {}, 0, "static")
        # flagged's token moved; datasets' did not.
        hit, _ = cache.lookup("flagged", {}, token=2)
        assert not hit
        assert cache.invalidations == 1
        assert len(cache) == 1
        assert cache.lookup("datasets", {}, 0) == (True, "static")

    def test_entries_hit_at_their_own_tokens(self):
        cache = WatermarkCache(Observability())
        cache.store("datasets", {}, 0, "static")
        cache.store("metrics", {}, 7, "wm7")
        assert cache.lookup("datasets", {}, 0)[0]
        assert cache.lookup("metrics", {}, 7)[0]

    def test_restored_cache_behaves_identically(self):
        cache = WatermarkCache(Observability())
        cache.store("flagged", {}, 1, "one")
        cache.store("datasets", {"n": 1}, 0, "two")
        cache.lookup("flagged", {}, 1)
        cache.lookup("flagged", {}, 2)  # stale drop
        clone = WatermarkCache(Observability())
        clone.load_state(cache.state_dict())
        assert clone.state_dict() == cache.state_dict()
        assert (clone.hits, clone.misses, clone.invalidations) == (1, 1, 1)
        assert clone.lookup("datasets", {"n": 1}, 0) == (True, "two")
