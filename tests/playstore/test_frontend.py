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

