"""Catalog, developer, and install-ledger tests."""

import pytest

from repro.playstore.catalog import AppListing, Catalog, Developer
from repro.playstore.ledger import InstallBatch, InstallLedger, InstallSource


def make_listing(package="com.example.app", genre="Tools", **kwargs):
    developer = kwargs.pop("developer", None) or Developer(
        developer_id="dev1", name="Example Inc", country="US")
    return AppListing(package=package, title="Example", genre=genre,
                      developer=developer, release_day=0, **kwargs)


class TestCatalog:
    def test_publish_and_get(self):
        catalog = Catalog()
        listing = make_listing()
        catalog.publish(listing)
        assert catalog.get("com.example.app") is listing
        assert "com.example.app" in catalog
        assert len(catalog) == 1

    def test_duplicate_publish_rejected(self):
        catalog = Catalog()
        catalog.publish(make_listing())
        with pytest.raises(ValueError):
            catalog.publish(make_listing())

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            Catalog().get("com.missing")

    def test_by_developer(self):
        catalog = Catalog()
        developer = Developer(developer_id="d", name="D", country="DE")
        catalog.publish(make_listing("com.a.one", developer=developer))
        catalog.publish(make_listing("com.a.two", developer=developer))
        catalog.publish(make_listing("com.b.other"))
        assert [l.package for l in catalog.by_developer("d")] == [
            "com.a.one", "com.a.two"]

    def test_unpublish(self):
        catalog = Catalog()
        catalog.publish(make_listing())
        catalog.unpublish("com.example.app")
        assert "com.example.app" not in catalog

    def test_invalid_genre_rejected(self):
        with pytest.raises(ValueError):
            make_listing(genre="Nonexistent Genre")

    def test_invalid_package_rejected(self):
        with pytest.raises(ValueError):
            make_listing(package="nodots")

    def test_game_flag(self):
        assert make_listing(genre="Puzzle").is_game
        assert not make_listing(genre="Finance").is_game

    def test_empty_developer_id_rejected(self):
        with pytest.raises(ValueError):
            Developer(developer_id="", name="X", country="US")


class TestInstallLedger:
    def setup_method(self):
        self.ledger = InstallLedger()

    def test_single_installs_accumulate(self):
        for day in range(3):
            self.ledger.record_install("com.a", day, InstallSource.ORGANIC)
        assert self.ledger.total_installs("com.a") == 3

    def test_batches_and_sources(self):
        self.ledger.record(InstallBatch("com.a", 0, InstallSource.ORGANIC, 10))
        self.ledger.record(InstallBatch("com.a", 1, InstallSource.INCENTIVIZED,
                                        5, campaign_id="c1"))
        by_source = self.ledger.installs_by_source("com.a")
        assert by_source[InstallSource.ORGANIC] == 10
        assert by_source[InstallSource.INCENTIVIZED] == 5

    def test_through_day_cutoff(self):
        self.ledger.record(InstallBatch("com.a", 0, InstallSource.ORGANIC, 10))
        self.ledger.record(InstallBatch("com.a", 5, InstallSource.ORGANIC, 7))
        assert self.ledger.total_installs("com.a", through_day=4) == 10
        assert self.ledger.total_installs("com.a", through_day=5) == 17

    def test_campaign_attribution(self):
        self.ledger.record(InstallBatch("com.a", 0, InstallSource.INCENTIVIZED,
                                        5, campaign_id="c1"))
        self.ledger.record(InstallBatch("com.a", 0, InstallSource.INCENTIVIZED,
                                        3, campaign_id="c2"))
        assert self.ledger.campaign_installs("c1") == 5
        assert self.ledger.campaign_installs("c2") == 3

    def test_removals_reduce_totals(self):
        self.ledger.record(InstallBatch("com.a", 0, InstallSource.INCENTIVIZED, 500,
                                        campaign_id="c1"))
        self.ledger.remove_installs("com.a", 10, 400)
        assert self.ledger.total_installs("com.a", through_day=9) == 500
        assert self.ledger.total_installs("com.a", through_day=10) == 100

    def test_totals_floor_at_zero(self):
        self.ledger.record(InstallBatch("com.a", 0, InstallSource.ORGANIC, 5))
        self.ledger.remove_installs("com.a", 1, 100)
        assert self.ledger.total_installs("com.a") == 0

    def test_daily_installs(self):
        self.ledger.record(InstallBatch("com.a", 2, InstallSource.ORGANIC, 4))
        daily = self.ledger.daily_installs("com.a", 2)
        assert daily[InstallSource.ORGANIC] == 4
        assert self.ledger.daily_installs("com.a", 3)[InstallSource.ORGANIC] == 0

    def test_invalid_batches_rejected(self):
        with pytest.raises(ValueError):
            InstallBatch("com.a", 0, InstallSource.ORGANIC, 0)
        with pytest.raises(ValueError):
            InstallBatch("com.a", -1, InstallSource.ORGANIC, 1)
        with pytest.raises(ValueError):
            self.ledger.remove_installs("com.a", 0, 0)

    def test_packages_listing(self):
        self.ledger.record(InstallBatch("com.b", 0, InstallSource.ORGANIC, 1))
        self.ledger.record(InstallBatch("com.a", 0, InstallSource.ORGANIC, 1))
        assert list(self.ledger.packages()) == ["com.a", "com.b"]
