"""Play Store HTTPS front-end tests."""

import pytest

from repro.playstore.catalog import AppListing, Developer
from repro.playstore.engagement import DailyEngagement
from repro.playstore.frontend import PLAY_HOST, PlayStoreFrontend
from repro.playstore.ledger import InstallSource
from repro.playstore.store import PlayStore
from tests.conftest import make_client


@pytest.fixture()
def play(fabric, root_ca, rng):
    store = PlayStore()
    developer = Developer(developer_id="dev1", name="Trebel", country="US",
                          website="https://trebel.example")
    store.publish(AppListing(package="com.mmm.trebelmusic", title="TREBEL",
                             genre="Music & Audio", developer=developer,
                             release_day=0))
    clock = {"day": 7}
    frontend = PlayStoreFrontend(fabric, store, root_ca, rng,
                                 current_day=lambda: clock["day"])
    return store, frontend, clock


class TestFrontend:
    def test_profile_served_over_https(self, play, fabric, trust_store, rng):
        store, _, clock = play
        store.record_install_batch("com.mmm.trebelmusic", 1,
                                   InstallSource.ORGANIC, 1234)
        client = make_client(fabric, trust_store, rng)
        response = client.get(PLAY_HOST, "/store/apps/details",
                              params={"id": "com.mmm.trebelmusic"})
        payload = response.json()
        assert payload["installs_floor"] == 1000
        assert payload["crawl_day"] == 7
        assert payload["developer"]["website"] == "https://trebel.example"

    def test_unknown_app_is_404(self, play, fabric, trust_store, rng):
        client = make_client(fabric, trust_store, rng)
        response = client.get(PLAY_HOST, "/store/apps/details",
                              params={"id": "com.ghost"})
        assert response.status == 404

    def test_missing_id_is_400(self, play, fabric, trust_store, rng):
        client = make_client(fabric, trust_store, rng)
        assert client.get(PLAY_HOST, "/store/apps/details").status == 400

    def test_chart_endpoint_tracks_clock(self, play, fabric, trust_store, rng):
        store, _, clock = play
        store.record_engagement("com.mmm.trebelmusic", 7,
                                DailyEngagement(active_users=50))
        client = make_client(fabric, trust_store, rng)
        payload = client.get(PLAY_HOST, "/store/charts/top_free").json()
        assert payload["day"] == 7
        assert payload["entries"][0]["package"] == "com.mmm.trebelmusic"
        clock["day"] = 20  # engagement window has passed
        payload = client.get(PLAY_HOST, "/store/charts/top_free").json()
        assert payload["day"] == 20
        assert payload["entries"] == []

    def test_unknown_chart_is_404(self, play, fabric, trust_store, rng):
        client = make_client(fabric, trust_store, rng)
        assert client.get(PLAY_HOST, "/store/charts/top_paid").status == 404


class TestRateLimiting:
    @pytest.fixture()
    def throttled_play(self, fabric, root_ca, rng):
        store = PlayStore()
        developer = Developer(developer_id="dev1", name="X", country="US")
        store.publish(AppListing(package="com.app.one", title="One",
                                 genre="Tools", developer=developer,
                                 release_day=0))
        clock = {"day": 0}
        frontend = PlayStoreFrontend(fabric, store, root_ca, rng,
                                     current_day=lambda: clock["day"],
                                     hostname="throttled.play.example",
                                     max_requests_per_day=3)
        return frontend, clock

    def test_budget_enforced_per_day(self, throttled_play, fabric,
                                     trust_store, rng):
        frontend, clock = throttled_play
        client = make_client(fabric, trust_store, rng)
        for _ in range(3):
            response = client.get(frontend.hostname, "/store/apps/details",
                                  params={"id": "com.app.one"})
            assert response.ok
        throttled = client.get(frontend.hostname, "/store/apps/details",
                               params={"id": "com.app.one"})
        assert throttled.status == 429

    def test_budget_resets_next_day(self, throttled_play, fabric,
                                    trust_store, rng):
        frontend, clock = throttled_play
        client = make_client(fabric, trust_store, rng)
        for _ in range(4):
            client.get(frontend.hostname, "/store/apps/details",
                       params={"id": "com.app.one"})
        clock["day"] = 1
        response = client.get(frontend.hostname, "/store/apps/details",
                              params={"id": "com.app.one"})
        assert response.ok

    def test_charts_count_against_budget(self, throttled_play, fabric,
                                         trust_store, rng):
        frontend, _ = throttled_play
        client = make_client(fabric, trust_store, rng)
        for _ in range(3):
            assert client.get(frontend.hostname,
                              "/store/charts/top_free").ok
        assert client.get(frontend.hostname,
                          "/store/charts/top_free").status == 429

    def test_crawler_records_throttling_as_failures(self, throttled_play,
                                                    fabric, trust_store, rng):
        from repro.monitor.crawler import PlayStoreCrawler
        frontend, _ = throttled_play
        crawler = PlayStoreCrawler(make_client(fabric, trust_store, rng),
                                   frontend.hostname)
        crawler.crawl_everything(["com.app.one"] * 5, day=0)
        assert crawler.failures > 0
        # The snapshots that did land are intact.
        assert crawler.archive.first_profile("com.app.one") is None or \
            crawler.archive.first_profile("com.app.one").installs_floor >= 0

    def test_disabled_by_default(self, fabric, root_ca, trust_store, rng):
        store = PlayStore()
        developer = Developer(developer_id="dev1", name="X", country="US")
        store.publish(AppListing(package="com.app.two", title="Two",
                                 genre="Tools", developer=developer,
                                 release_day=0))
        frontend = PlayStoreFrontend(fabric, store, root_ca, rng,
                                     current_day=lambda: 0,
                                     hostname="open.play.example")
        client = make_client(fabric, trust_store, rng)
        for _ in range(20):
            assert client.get(frontend.hostname, "/store/apps/details",
                              params={"id": "com.app.two"}).ok
