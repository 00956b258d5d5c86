"""Failure injection across the measurement pipeline.

Real measurement infrastructure survives partial outages: a dead offer
wall must not abort a milk run for the other walls, and a flaky Play
front end must not corrupt the crawl archive.
"""

import pytest

from repro.net.errors import ConnectionRefusedFabricError
from tests.monitor.test_fuzzer_milker import rig  # fixture reuse


class TestWallOutage:
    def test_dead_wall_recorded_as_error_not_crash(self, rig, fabric):
        milker, spec, walls = rig
        fabric.inject_fault(walls["Fyber"].hostname, 443,
                            ConnectionRefusedFabricError("wall down"))
        run = milker.milk(spec, day=3, country="US")
        assert run.errors  # the outage is reported...
        # ...and the other wall was still milked.
        assert any(o.iip_name == "ayeT-Studios" for o in run.offers)
        assert not any(o.iip_name == "Fyber" for o in run.offers)

    def test_wall_recovers_next_run(self, rig, fabric):
        milker, spec, walls = rig
        fabric.inject_fault(walls["Fyber"].hostname, 443,
                            ConnectionRefusedFabricError("wall down"))
        milker.milk(spec, day=3, country="US")
        fabric.clear_fault(walls["Fyber"].hostname, 443)
        run = milker.milk(spec, day=5, country="US")
        assert run.errors == []
        assert any(o.iip_name == "Fyber" for o in run.offers)


class TestCrawlerOutage:
    def test_profile_failures_counted_and_archive_clean(self, fabric, root_ca,
                                                        trust_store, rng):
        import random
        from repro.monitor.crawler import PlayStoreCrawler
        from repro.playstore.catalog import AppListing, Developer
        from repro.playstore.frontend import PLAY_HOST, PlayStoreFrontend
        from repro.playstore.store import PlayStore
        from tests.conftest import make_client

        store = PlayStore()
        store.publish(AppListing(
            package="com.app.alpha", title="A", genre="Tools",
            developer=Developer(developer_id="d", name="D", country="US"),
            release_day=0))
        PlayStoreFrontend(fabric, store, root_ca, rng, current_day=lambda: 0)
        crawler = PlayStoreCrawler(make_client(fabric, trust_store, rng),
                                   PLAY_HOST)
        crawler.crawl_everything(["com.app.alpha", "com.unlisted.app"],
                                 day=0)
        assert crawler.failures == 1
        assert crawler.archive.first_profile("com.unlisted.app") is None
        assert crawler.archive.first_profile("com.app.alpha") is not None

    def test_crawler_records_throttling_as_failures(self, fabric, root_ca,
                                                    trust_store, rng):
        from repro.monitor.crawler import PlayStoreCrawler
        from repro.net.chaos import (INJECTED_STATUSES, ChaosScenario,
                                     FaultPlan)
        from repro.obs import Observability
        from repro.playstore.catalog import AppListing, Developer
        from repro.playstore.frontend import PLAY_HOST, PlayStoreFrontend
        from repro.playstore.store import PlayStore
        from tests.conftest import make_client

        store = PlayStore()
        store.publish(AppListing(
            package="com.app.one", title="One", genre="Tools",
            developer=Developer(developer_id="d", name="D", country="US"),
            release_day=0))
        PlayStoreFrontend(fabric, store, root_ca, rng, current_day=lambda: 0)
        # Every request draws an injected 429 or 503 from the fault plan.
        fabric.set_chaos(FaultPlan(ChaosScenario(
            name="throttled", seed=3, http_error_rate=1.0)))
        crawler = PlayStoreCrawler(make_client(fabric, trust_store, rng),
                                   PLAY_HOST, obs=Observability())
        crawler.crawl_everything(["com.app.one"] * 5, day=0)
        assert crawler.failures > 0
        metrics = crawler.obs.metrics
        assert metrics.counter_total("monitor.crawl_failures") == (
            crawler.failures)
        assert crawler.failures == sum(
            metrics.counter_total_by_label("monitor.crawl_failures",
                                           "error", f"http_{status}")
            for status in INJECTED_STATUSES)
        # Nothing corrupt landed, and the profile is tried next visit.
        assert crawler.archive.first_profile("com.app.one") is None
        assert crawler.retry_queue == ["com.app.one"]
