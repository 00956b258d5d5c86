"""Crawler + archive tests against the Play front end."""

import pytest

from repro.monitor.crawler import CrawlArchive, PlayStoreCrawler
from repro.playstore.catalog import AppListing, Developer
from repro.playstore.engagement import DailyEngagement
from repro.playstore.frontend import PLAY_HOST, PlayStoreFrontend
from repro.playstore.ledger import InstallSource
from repro.playstore.store import PlayStore
from tests.conftest import make_client


@pytest.fixture()
def world(fabric, root_ca, rng, trust_store):
    store = PlayStore()
    developer = Developer(developer_id="dev1", name="Example", country="US")
    for package, genre in (("com.app.alpha", "Tools"),
                           ("com.app.beta", "Puzzle")):
        store.publish(AppListing(package=package, title=package, genre=genre,
                                 developer=developer, release_day=0))
    clock = {"day": 0}
    PlayStoreFrontend(fabric, store, root_ca, rng,
                      current_day=lambda: clock["day"])
    client = make_client(fabric, trust_store, rng)
    crawler = PlayStoreCrawler(client, PLAY_HOST)
    return store, clock, crawler


class TestCrawler:
    def test_cadence(self, world):
        _, _, crawler = world
        assert crawler.should_crawl(0)
        assert not crawler.should_crawl(1)
        assert crawler.should_crawl(2)

    def test_profile_crawl(self, world):
        store, clock, crawler = world
        store.record_install_batch("com.app.alpha", 0, InstallSource.ORGANIC, 777)
        crawler.capture_offer_pages(["com.app.alpha"], day=0)
        snapshot = crawler.archive.profile("com.app.alpha", 0)
        assert snapshot.installs_floor == 500
        assert snapshot.developer_id == "dev1"

    def test_unknown_profile_counts_as_failure(self, world):
        _, _, crawler = world
        crawler.capture_offer_pages(["com.ghost"], day=0)
        assert crawler.archive.profile("com.ghost", 0) is None
        assert crawler.failures == 1

    def test_install_series_across_days(self, world):
        store, clock, crawler = world
        for day, count in ((0, 400), (2, 700), (4, 0)):
            if count:
                store.record_install_batch("com.app.alpha", day,
                                           InstallSource.ORGANIC, count)
            clock["day"] = day
            crawler.crawl_everything(["com.app.alpha"], day=day)
        series = crawler.archive.install_series("com.app.alpha")
        assert series == [(0, 100), (2, 1000), (4, 1000)]
        assert crawler.archive.crawl_days == [0, 2, 4]

    def test_chart_crawl_and_timeline(self, world):
        store, clock, crawler = world
        # App enters the games chart on day 2 only.
        store.record_engagement("com.app.beta", 2, DailyEngagement(active_users=50))
        for day in (0, 2, 10):
            clock["day"] = day
            crawler.crawl_everything([], day=day)
        appearances = crawler.archive.chart_appearances("com.app.beta")
        assert {a.day for a in appearances} == {2}
        assert {a.chart for a in appearances} == {"top_free", "top_games"}
        timeline = crawler.archive.rank_timeline("com.app.beta", "top_games")
        assert timeline == [(0, None), (2, 1.0), (10, None)]
        assert crawler.archive.charted_on("com.app.beta", 2)
        assert not crawler.archive.charted_on("com.app.beta", 0)

    def test_first_and_last_profiles(self, world):
        store, clock, crawler = world
        store.record_install_batch("com.app.alpha", 0, InstallSource.ORGANIC, 100)
        clock["day"] = 0
        crawler.capture_offer_pages(["com.app.alpha"], day=0)
        store.record_install_batch("com.app.alpha", 3, InstallSource.ORGANIC, 5000)
        clock["day"] = 4
        crawler.capture_offer_pages(["com.app.alpha"], day=4)
        archive = crawler.archive
        assert archive.first_profile("com.app.alpha").installs_floor == 100
        assert archive.last_profile("com.app.alpha").installs_floor == 5000
        assert archive.first_profile("com.ghost") is None
