"""Table/figure computation tests on hand-built datasets."""

import pytest

from repro.affiliates.app import AffiliateAppSpec
from repro.analysis.appstore_impact import (
    case_study_timeline,
    enforcement_decreases,
    install_decrease_flag,
    install_increase_comparison,
    install_increase_flag,
    top_chart_comparison,
)
from repro.analysis.characterize import (
    install_count_histogram,
    iip_summary_table,
    offer_type_table,
)
from repro.analysis.columnar import ColumnarFrame
from repro.analysis.funding import (
    funded_offer_breakdown,
    funded_packages,
    funding_comparison,
)
from repro.analysis.monetization import (
    ad_library_distribution,
    arbitrage_stats,
    split_packages_by_offer_type,
)
from repro.crunchbase.database import (
    CrunchbaseDatabase,
    FundingRound,
    Organization,
)
from repro.monitor.crawler import ChartAppearance, CrawlArchive, ProfileSnapshot
from repro.monitor.dataset import ObservedOffer, OfferDataset

SPEC = AffiliateAppSpec(
    package="com.aff.app", title="Aff", installs_display="1M+",
    integrated_iips=("Fyber", "RankApp"), currency_name="coins",
    points_per_usd=100.0)


def obs(iip, offer_id, package, description, payout_usd, day=0):
    return ObservedOffer(
        iip_name=iip, offer_id=offer_id, package=package,
        app_title=package.split(".")[-1], play_store_url=f"https://play/{package}",
        description=description, payout_points=int(round(payout_usd * 100)),
        currency="coins", affiliate_package="com.aff.app", country="US",
        day=day)


def build_dataset():
    dataset = OfferDataset({"com.aff.app": SPEC})
    dataset.ingest_all([
        obs("Fyber", "f1", "com.app.one", "Install and Register", 0.34, day=2),
        obs("Fyber", "f2", "com.app.one", "Install and Reach Level 10", 0.50, day=6),
        obs("Fyber", "f3", "com.app.two", "Install and make a $4.99 in-app purchase", 2.98, day=4),
        obs("Fyber", "f4", "com.app.three",
            "Install and reach 850 points by completing surveys", 0.67, day=4),
        obs("RankApp", "r1", "com.app.four", "Install and Launch", 0.02, day=2),
        obs("RankApp", "r2", "com.app.five", "Install and open the app", 0.10, day=6),
    ])
    return dataset


def profile(package, day, installs, developer="dev1", name="Dev One",
            website=None, country="US", genre="Tools", release_day=0):
    return ProfileSnapshot(
        package=package, day=day, installs_floor=installs, genre=genre,
        release_day=release_day, developer_id=developer,
        developer_name=name, developer_country=country,
        developer_website=website, is_game=genre in ("Puzzle", "Casual"))


class TestTable3:
    def test_offer_type_rows(self):
        rows = {row.label: row for row in offer_type_table(build_dataset())}
        assert rows["No activity"].offer_count == 2
        assert rows["Activity"].offer_count == 4
        assert rows["No activity"].fraction_of_all == pytest.approx(2 / 6)
        assert rows["Activity (Purchase)"].average_payout_usd == pytest.approx(2.98)
        assert rows["Activity (Registration)"].average_payout_usd == pytest.approx(0.34)
        # Usage includes the arbitrage offer.
        assert rows["Activity (Usage)"].offer_count == 2

    def test_empty_dataset(self):
        assert offer_type_table(OfferDataset({})) == []


class TestTable4:
    def test_summary_rows(self):
        dataset = build_dataset()
        archive = CrawlArchive()
        archive.add_profile(profile("com.app.one", 2, 1_000_000,
                                    developer="d1", country="US",
                                    genre="Music & Audio", release_day=0))
        archive.add_profile(profile("com.app.two", 4, 500_000,
                                    developer="d2", country="FR",
                                    genre="Casual", release_day=1))
        archive.add_profile(profile("com.app.three", 4, 1_000_000,
                                    developer="d1", country="US",
                                    genre="Tools", release_day=2))
        archive.add_profile(profile("com.app.four", 2, 100,
                                    developer="d3", country="VN",
                                    genre="Tools", release_day=1))
        archive.add_profile(profile("com.app.five", 6, 1_000,
                                    developer="d4", country="IN",
                                    genre="Puzzle", release_day=3))
        rows = {row.iip_name: row
                for row in iip_summary_table(dataset, archive, ("Fyber",))}
        fyber = rows["Fyber"]
        assert fyber.iip_type == "Vetted"
        assert fyber.app_count == 3
        assert fyber.developer_count == 2
        assert fyber.country_count == 2
        assert fyber.genre_count == 3
        assert fyber.activity_fraction == 1.0
        assert fyber.median_install_count == 1_000_000
        assert fyber.median_offer_payout_usd == pytest.approx(0.585)
        rank = rows["RankApp"]
        assert rank.iip_type == "Unvetted"
        assert rank.no_activity_fraction == 1.0
        assert rank.median_install_count == pytest.approx(550)
        # com.app.four campaign starts day 2, released day 1 -> age 1.
        assert rank.median_app_age_days == pytest.approx(2.0)


class TestFigure4:
    def test_histogram_bins(self):
        values = [500, 5_000, 50_000, 5_000_000, 2_000_000_000]
        histogram = dict(install_count_histogram(values))
        assert histogram["0-1k"] == 1
        assert histogram["1k-10k"] == 1
        assert histogram["10k-100k"] == 1
        assert histogram["1M-10M"] == 1
        assert histogram["1000M+"] == 1
        assert histogram["100M-1000M"] == 0


def build_impact_archive():
    """Crawl series engineered for the Table 5/6 tests."""
    archive = CrawlArchive()
    # Advertised app that grows within its window (2..6).
    for day, installs in ((2, 100), (4, 500), (6, 1000)):
        archive.add_profile(profile("com.app.one", day, installs))
    # Advertised app that stays flat.
    for day in (2, 4, 6):
        archive.add_profile(profile("com.app.four", day, 100))
    # Baseline apps: one grows, one flat, one crawled once (excluded).
    for day, installs in ((0, 1000), (24, 5000)):
        archive.add_profile(profile("com.base.grow", day, installs))
    for day in (0, 24):
        archive.add_profile(profile("com.base.flat", day, 10_000))
    archive.add_profile(profile("com.base.once", 0, 10))
    for day in (0, 2, 4, 6, 24):
        archive.note_crawl_day(day)
    # Charts: com.app.one charts on day 4 (inside window, not at start).
    archive.add_chart("top_free", 0, [])
    archive.add_chart("top_free", 2, [
        ChartAppearance("com.already.charting", "top_free", 2, 1, 1.0)])
    archive.add_chart("top_free", 4, [
        ChartAppearance("com.app.one", "top_free", 4, 3, 0.99)])
    archive.add_chart("top_free", 6, [])
    archive.add_chart("top_free", 24, [])
    return archive


class TestTable5:
    def test_increase_flags(self):
        archive = build_impact_archive()
        assert install_increase_flag(archive, "com.app.one", (2, 6)) is True
        assert install_increase_flag(archive, "com.app.four", (2, 6)) is False
        assert install_increase_flag(archive, "com.base.once", (0, 24)) is None

    def test_comparison_counts(self):
        archive = build_impact_archive()
        dataset = build_dataset()
        comparison = install_increase_comparison(
            archive, dataset,
            vetted_packages=["com.app.one"],
            unvetted_packages=["com.app.four"],
            baseline_packages=["com.base.grow", "com.base.flat", "com.base.once"],
            baseline_window=(0, 24))
        assert comparison.vetted.positive == 1
        assert comparison.unvetted.positive == 0
        assert comparison.baseline.total == 2  # once-crawled app excluded
        assert comparison.baseline.positive == 1
        assert comparison.vetted_vs_baseline.dof == 1


class TestTable6:
    def test_chart_comparison(self):
        archive = build_impact_archive()
        dataset = build_dataset()
        comparison = top_chart_comparison(
            archive, dataset,
            vetted_packages=["com.app.one"],
            unvetted_packages=["com.app.four"],
            baseline_packages=["com.base.grow", "com.base.flat"],
            baseline_window=(0, 24))
        assert comparison.vetted.positive == 1
        assert comparison.unvetted.positive == 0
        assert comparison.baseline.positive == 0

    def test_already_charting_app_excluded(self):
        archive = build_impact_archive()
        dataset = build_dataset()
        comparison = top_chart_comparison(
            archive, dataset,
            vetted_packages=["com.app.one"],
            unvetted_packages=["com.app.four"],
            baseline_packages=["com.already.charting", "com.base.flat"],
            baseline_window=(2, 24))
        assert comparison.baseline.total == 1


class TestStreamedImpactTables:
    """Tables 5-6 over a streamed dataset (``batch_rows > 0``)."""

    # com.base.grow is crawled but never offered: it falls back to the
    # baseline window.
    VETTED = ["com.app.one", "com.app.two", "com.app.three"]
    UNVETTED = ["com.app.four", "com.app.five", "com.base.grow"]
    BASELINE = ["com.base.grow", "com.base.flat", "com.base.once"]

    def tables(self, dataset, vetted, unvetted):
        archive = build_impact_archive()
        return tuple(
            compare(archive, dataset, vetted_packages=vetted,
                    unvetted_packages=unvetted,
                    baseline_packages=self.BASELINE, baseline_window=(0, 24))
            for compare in (install_increase_comparison,
                            top_chart_comparison))

    @staticmethod
    def streamed():
        dataset = build_dataset()
        dataset.batch_rows = 2
        return dataset

    def test_streamed_equals_materialised(self):
        materialised = self.tables(build_dataset(), self.VETTED,
                                   self.UNVETTED)
        assert self.tables(self.streamed(), self.VETTED,
                           self.UNVETTED) == materialised
        assert materialised[0].unvetted.positive == 1  # com.base.grow

    def test_frame_builds_do_not_grow_with_packages_queried(
            self, monkeypatch):
        builds = []
        original = ColumnarFrame.from_records

        def counting(cls, records, fields):
            builds.append(fields)
            return original(records, fields)

        monkeypatch.setattr(ColumnarFrame, "from_records",
                            classmethod(counting))
        self.tables(self.streamed(), self.VETTED[:1], self.UNVETTED[:1])
        one_package = len(builds)
        builds.clear()
        self.tables(self.streamed(), self.VETTED, self.UNVETTED)
        assert one_package > 0
        assert len(builds) == one_package


class TestFigure5:
    def test_case_study_timeline(self):
        archive = build_impact_archive()
        dataset = build_dataset()
        timeline = case_study_timeline(archive, dataset,
                                       "com.app.one", "top_free")
        assert timeline.campaign_start == 2
        assert timeline.appeared_after_campaign_start()
        by_day = {point.day: point.percentile for point in timeline.points}
        assert by_day[4] == pytest.approx(0.99)
        assert by_day[0] is None


class TestEnforcement:
    def test_decrease_detection(self):
        archive = CrawlArchive()
        for day, installs in ((0, 1000), (2, 1000), (4, 500)):
            archive.add_profile(profile("com.filtered.app", day, installs))
        for day, installs in ((0, 100), (2, 500)):
            archive.add_profile(profile("com.growing.app", day, installs))
        assert install_decrease_flag(archive, "com.filtered.app")
        assert not install_decrease_flag(archive, "com.growing.app")
        observations = enforcement_decreases(archive, {
            "Unvetted": ["com.filtered.app", "com.growing.app"],
        })
        assert observations[0].decreased == 1
        assert observations[0].fraction == pytest.approx(0.5)


class TestFigure6AndArbitrage:
    def test_ad_library_distribution(self):
        scan = {"com.a": 2, "com.b": 7, "com.c": 5, "com.d": 0}
        groups = {"Activity": ["com.b", "com.c"], "No activity": ["com.a", "com.d"]}
        distributions = {d.label: d
                         for d in ad_library_distribution(scan, groups)}
        assert distributions["Activity"].fraction_with_at_least(5) == 1.0
        assert distributions["No activity"].fraction_with_at_least(5) == 0.0
        assert distributions["Activity"].cdf_at(5) == pytest.approx(0.5)
        series = distributions["Activity"].series(max_count=8)
        assert series[-1] == (8, 1.0)

    def test_split_by_offer_type(self):
        split = split_packages_by_offer_type(build_dataset())
        assert split["Activity offers"] == [
            "com.app.one", "com.app.three", "com.app.two"]
        assert split["No activity offers"] == ["com.app.five", "com.app.four"]

    def test_arbitrage_stats(self):
        stats = arbitrage_stats(build_dataset(), vetted_names=("Fyber",))
        assert stats.total_apps == 5
        assert stats.arbitrage_apps == 1
        assert stats.vetted_fraction == pytest.approx(1 / 3)
        assert stats.unvetted_arbitrage == 0


class TestTables7And8:
    def _snapshot(self):
        db = CrunchbaseDatabase()
        db.add_organization(Organization("org1", "Dev One",
                                         "https://devone.example", "US"))
        db.add_organization(Organization("org2", "Base Co",
                                         "https://baseco.example", "US"))
        db.add_round(FundingRound("org1", day=20, round_type="Series A",
                                  amount_usd=30e6,
                                  investor_name="VC", investor_type="VC investor"))
        return db.snapshot(as_of_day=200)

    def _archive(self):
        archive = CrawlArchive()
        archive.add_profile(profile("com.app.one", 2, 1_000_000,
                                    developer="d1", name="Dev One",
                                    website="https://devone.example"))
        archive.add_profile(profile("com.app.four", 2, 100,
                                    developer="d2", name="Anon 9921"))
        archive.add_profile(profile("com.base.flat", 0, 10_000,
                                    developer="d3", name="Base Co",
                                    website="https://baseco.example"))
        return archive

    def test_funding_comparison(self):
        comparison = funding_comparison(
            self._archive(), build_dataset(), self._snapshot(),
            vetted_packages=["com.app.one"],
            unvetted_packages=["com.app.four"],
            baseline_packages=["com.base.flat"],
            baseline_window_start=0)
        assert comparison.vetted.apps_matched == 1
        assert comparison.vetted.funded_after_campaign == 1
        assert comparison.unvetted.apps_matched == 0  # no website, junk name
        assert comparison.baseline.apps_matched == 1
        assert comparison.baseline.funded_after_campaign == 0

    def test_funded_packages_and_breakdown(self):
        dataset = build_dataset()
        funded = funded_packages(self._archive(), dataset, self._snapshot(),
                                 ["com.app.one", "com.app.four"])
        assert funded == ["com.app.one"]
        breakdown = funded_offer_breakdown(dataset, funded)
        assert breakdown.funded_app_count == 1
        assert breakdown.activity_app_fraction == 1.0
        assert breakdown.no_activity_app_fraction == 0.0
        assert breakdown.activity_average_payout == pytest.approx(0.42)
