"""The crawler's (package, day) request cache and queue dedup.

Assertions run against two independent sources: the crawler's own
``crawler.cache_hits`` / ``cache_misses`` counters, and the fabric's
accepted-connection count for the Play host — so a cache "hit" that
secretly still hits the wire cannot pass.
"""

import pytest

from repro.monitor.crawler import PlayStoreCrawler
from repro.net.client import HttpClient, TlsSessionCache
from repro.net.errors import TransientNetworkError
from repro.obs import Observability
from repro.playstore.catalog import AppListing, Developer
from repro.playstore.frontend import PLAY_HOST, PlayStoreFrontend
from repro.playstore.ledger import InstallSource
from repro.playstore.store import PlayStore
from tests.conftest import make_client

HTTPS = 443


@pytest.fixture()
def rig(fabric, root_ca, rng, trust_store):
    store = PlayStore()
    developer = Developer(developer_id="dev1", name="Example", country="US")
    for package in ("com.app.alpha", "com.app.beta"):
        store.publish(AppListing(package=package, title=package,
                                 genre="Tools", developer=developer,
                                 release_day=0))
    store.record_install_batch("com.app.alpha", 0, InstallSource.ORGANIC, 700)
    clock = {"day": 0}
    # The fabric's own observability counts the connections it accepts.
    fabric.obs = Observability()
    PlayStoreFrontend(fabric, store, root_ca, rng,
                      current_day=lambda: clock["day"])
    client = make_client(fabric, trust_store, rng)
    crawler = PlayStoreCrawler(client, PLAY_HOST, obs=Observability())
    return store, clock, crawler, fabric


def play_connections(fabric) -> int:
    return fabric.obs.metrics.counter_value("net.fabric.connections",
                                            host=PLAY_HOST)


class TestProfileCache:
    def test_repeat_same_day_hits_cache_and_skips_the_wire(self, rig):
        _, _, crawler, fabric = rig
        crawler.capture_offer_pages(["com.app.alpha"], day=0)
        wire_after_first = play_connections(fabric)
        crawler.capture_offer_pages(["com.app.alpha"], day=0)
        assert play_connections(fabric) == wire_after_first
        assert crawler.cache_hits == 1
        assert crawler.cache_misses == 1
        assert crawler.requests_made == 1

    def test_new_day_invalidates(self, rig):
        _, clock, crawler, fabric = rig
        crawler.capture_offer_pages(["com.app.alpha"], day=0)
        clock["day"] = 2
        crawler.capture_offer_pages(["com.app.alpha"], day=2)
        assert crawler.archive.profile("com.app.alpha", 2).day == 2
        assert crawler.cache_hits == 0
        assert crawler.cache_misses == 2
        assert crawler.requests_made == 2

    def test_memo_keeps_only_the_current_day(self, rig):
        _, clock, crawler, _ = rig
        crawler.crawl_everything(["com.app.alpha"], day=0)
        clock["day"] = 2
        crawler.capture_offer_pages(["com.app.beta"], day=2)
        assert crawler._chart_cache == {}
        assert list(crawler._profile_cache) == [("com.app.beta", 2)]

    def test_failed_fetch_is_not_cached(self, rig):
        _, _, crawler, fabric = rig
        fabric.inject_fault(PLAY_HOST, HTTPS, TransientNetworkError("reset"))
        crawler.capture_offer_pages(["com.app.alpha"], day=0)
        assert crawler.archive.profile("com.app.alpha", 0) is None
        assert crawler.failures == 1
        assert "com.app.alpha" in crawler.retry_queue
        # The failure must not poison the cache: the next attempt goes
        # back to the wire and gets the real profile.
        fabric.clear_fault(PLAY_HOST, HTTPS)
        wire_before = play_connections(fabric)
        crawler.capture_offer_pages(["com.app.alpha"], day=0)
        snapshot = crawler.archive.profile("com.app.alpha", 0)
        assert snapshot is not None and snapshot.installs_floor == 500
        assert play_connections(fabric) > wire_before
        assert crawler.cache_hits == 0
        assert crawler.cache_misses == 2


class TestChartCache:
    def test_charts_memoised_per_day(self, rig):
        store, _, crawler, fabric = rig
        crawler.crawl_charts(day=0)
        requests_after_first = crawler.requests_made
        wire_after_first = play_connections(fabric)
        crawler.crawl_charts(day=0)
        assert crawler.requests_made == requests_after_first
        assert play_connections(fabric) == wire_after_first
        assert crawler.cache_hits == requests_after_first  # one per chart

    def test_charts_refetched_on_a_new_day(self, rig):
        _, clock, crawler, _ = rig
        crawler.crawl_charts(day=0)
        requests_after_first = crawler.requests_made
        clock["day"] = 2
        crawler.crawl_charts(day=2)
        assert crawler.requests_made == 2 * requests_after_first


class TestOfferPageCapture:
    def test_duplicate_impressions_collapse_to_one_fetch(self, rig):
        _, _, crawler, fabric = rig
        impressions = ["com.app.alpha", "com.app.beta", "com.app.alpha",
                       "com.app.alpha", "com.app.beta"]
        captured = crawler.capture_offer_pages(impressions, day=0)
        assert captured == 5
        assert crawler.requests_made == 2        # one per unique package
        assert play_connections(fabric) == 2     # one per wire request
        assert crawler.cache_hits == 3           # the collapsed duplicates
        total = crawler.obs.metrics.counter_total
        assert total("monitor.offer_pages") == 5

    def test_capture_seeds_the_same_day_tracked_crawl(self, rig):
        _, _, crawler, fabric = rig
        crawler.capture_offer_pages(["com.app.alpha"], day=0)
        wire_before = play_connections(fabric)
        crawler.crawl_everything(["com.app.alpha"], day=0)
        # The tracked crawl later that day is served from the entry the
        # impression capture populated: only the 3 charts hit the wire.
        assert play_connections(fabric) == wire_before + 3
        assert crawler.requests_made == 1 + 3
        assert crawler.cache_hits == 1


class TestCrawlEverything:
    def test_duplicate_tracked_packages_cost_one_fetch(self, rig):
        _, _, crawler, fabric = rig
        crawler.crawl_everything(
            ["com.app.alpha", "com.app.beta", "com.app.alpha"], day=0)
        # 3 charts + 2 unique profiles = 5 wire requests, not 6.
        assert crawler.requests_made == 5
        assert play_connections(fabric) == 5
        total = crawler.obs.metrics.counter_total
        assert total("monitor.crawl_deduped") == 1

    def test_retry_queue_drains_via_cache_aware_path(self, rig):
        _, clock, crawler, fabric = rig
        fabric.inject_fault(PLAY_HOST, HTTPS, TransientNetworkError("reset"))
        crawler.crawl_everything(["com.app.alpha"], day=0)
        assert crawler.retry_queue == ["com.app.alpha"]
        fabric.clear_fault(PLAY_HOST, HTTPS)
        clock["day"] = 2
        crawler.crawl_everything(["com.app.alpha"], day=2)
        assert crawler.retry_queue == []
        total = crawler.obs.metrics.counter_total
        assert total("monitor.crawl_retry_drained") == 1
        assert total("monitor.crawl_retry_recovered") == 1
        assert crawler.archive.profile("com.app.alpha", 2) is not None


class TestTlsSessions:
    def test_one_full_handshake_per_visit_day(self, rig, fabric, rng,
                                              trust_store):
        _, clock, _, _ = rig
        obs = Observability()
        plain = make_client(fabric, trust_store, rng)
        client = HttpClient(fabric, plain.endpoint, trust_store, rng,
                            obs=obs, session_cache=TlsSessionCache())
        crawler = PlayStoreCrawler(client, PLAY_HOST, obs=obs)
        total = obs.metrics.counter_total
        crawler.capture_offer_pages(["com.app.alpha"], day=0)
        crawler.crawl_everything(["com.app.alpha", "com.app.beta"], day=0)
        # Day 0: one connection per wire request; the impression fetch
        # handshakes in full, and the 3 charts and beta's profile resume
        # its session (alpha is memoised).
        assert crawler.requests_made == 5
        assert play_connections(fabric) == crawler.requests_made
        assert total("net.client.tls_handshakes") == 1
        assert total("net.client.tls_resumptions") == 4
        # Day 2: the client's ``today`` rolls over with the visit, so
        # the day opens with one fresh handshake and resumes after it.
        clock["day"] = 2
        crawler.crawl_everything(["com.app.alpha", "com.app.beta"], day=2)
        assert crawler.requests_made == 10
        assert play_connections(fabric) == crawler.requests_made
        assert client.today == 2
        assert total("net.client.tls_handshakes") == 2
        assert total("net.client.tls_resumptions") == 8
