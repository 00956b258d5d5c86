"""End-to-end integration test of the Section-4 wild measurement.

Runs a scaled-down world (about 110 advertised apps, 36 baseline apps,
40 days) through the full milking + crawling pipeline and checks that
every analysis stage produces coherent output.  The paper-shape
assertions (who wins, rough factors) live in the benchmarks, which run
at a larger scale.
"""

import pytest

from repro import World, WildScenario, WildScenarioConfig
from repro.analysis.appstore_impact import (
    enforcement_decreases,
    install_increase_comparison,
    top_chart_comparison,
)
from repro.analysis.characterize import iip_summary_table, offer_type_table
from repro.analysis.funding import funding_comparison
from repro.analysis.monetization import (
    ad_library_distribution,
    arbitrage_stats,
    split_packages_by_offer_type,
)
from repro.core import WildMeasurement, WildMeasurementConfig
from repro.iip.registry import VETTED_IIPS

DAYS = 40


@pytest.fixture(scope="module")
def wild():
    world = World(seed=7)
    scenario = WildScenario(world, WildScenarioConfig(
        scale=0.12, measurement_days=DAYS))
    scenario.build()
    measurement = WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=DAYS))
    results = measurement.run()
    return world, scenario, results


class TestPipeline:
    def test_milking_finds_most_advertised_apps(self, wild):
        _, scenario, results = wild
        observed = set(results.dataset.unique_packages())
        advertised = set(scenario.advertised_packages())
        assert observed <= advertised
        assert len(observed) / len(advertised) > 0.8

    def test_no_milk_errors(self, wild):
        _, _, results = wild
        assert results.milk_errors == []

    def test_all_seven_iips_observed(self, wild):
        _, _, results = wild
        assert len(results.dataset.iips_observed()) == 7

    def test_payouts_normalised_to_usd(self, wild):
        _, scenario, results = wild
        ground_truth = {
            campaign.offer.offer_id: campaign.offer.payout_usd
            for app in scenario.advertised
            for campaign in app.campaigns
        }
        for record in results.dataset.offers():
            assert record.payout_usd == pytest.approx(
                ground_truth[record.offer_id], abs=0.02)

    def test_descriptions_survive_interception_byte_exact(self, wild):
        _, scenario, results = wild
        ground_truth = {
            campaign.offer.offer_id: campaign.offer.description
            for app in scenario.advertised
            for campaign in app.campaigns
        }
        for record in results.dataset.offers():
            assert record.description == ground_truth[record.offer_id]

    def test_crawl_archive_covers_baseline(self, wild):
        _, scenario, results = wild
        for package in scenario.baseline_packages():
            assert len(results.archive.install_series(package)) >= 10

    def test_crawl_cadence_every_other_day(self, wild):
        _, _, results = wild
        days = results.archive.crawl_days
        assert days[0] == 0
        assert all(later - earlier == 2
                   for earlier, later in zip(days, days[1:]))

    def test_campaign_windows_inside_measurement(self, wild):
        _, _, results = wild
        for package in results.dataset.unique_packages():
            start, end = results.dataset.campaign_window(package)
            assert 0 <= start <= end < DAYS

    def test_kept_records_share_one_string_per_value(self, wild):
        _, _, results = wild
        kept = [
            (list(results.observations),
             ("iip_name", "offer_id", "package", "app_title",
              "play_store_url", "description", "currency")),
            (list(results.archive.iter_profiles()),
             ("genre", "developer_id", "developer_name",
              "developer_country")),
        ]
        for records, fields in kept:
            assert records
            for name in fields:
                values = [getattr(record, name) for record in records]
                objects = {id(value) for value in values}
                assert len(objects) == len(set(values)), name


class TestAnalyses:
    def test_offer_type_table_covers_both_categories(self, wild):
        _, _, results = wild
        rows = {row.label: row for row in offer_type_table(results.dataset)}
        assert rows["No activity"].offer_count > 0
        assert rows["Activity"].offer_count > 0
        assert (rows["Activity"].average_payout_usd
                > rows["No activity"].average_payout_usd)

    def test_iip_summary_popularity_split(self, wild):
        _, _, results = wild
        rows = {row.iip_name: row for row in iip_summary_table(
            results.dataset, results.archive, VETTED_IIPS)}
        assert (rows["Fyber"].median_install_count
                > rows["RankApp"].median_install_count)
        assert rows["RankApp"].no_activity_fraction > 0.6

    def test_install_increase_comparison_runs(self, wild):
        _, _, results = wild
        # The tiers never share an app, so the comparison groups need
        # no de-overlap.
        assert set(results.vetted_packages()).isdisjoint(
            results.unvetted_packages())
        comparison = install_increase_comparison(
            results.archive, results.dataset,
            results.vetted_packages(), results.unvetted_packages(),
            results.baseline_packages, results.baseline_window)
        assert comparison.unvetted.fraction > comparison.baseline.fraction

    def test_chart_comparison_runs(self, wild):
        _, _, results = wild
        comparison = top_chart_comparison(
            results.archive, results.dataset,
            results.vetted_packages(), results.unvetted_packages(),
            results.baseline_packages, results.baseline_window)
        assert comparison.vetted.total > 0

    def test_funding_comparison_runs(self, wild):
        _, _, results = wild
        comparison = funding_comparison(
            results.archive, results.dataset, results.snapshot,
            results.vetted_packages(), results.unvetted_packages(),
            results.baseline_packages, results.baseline_window[0])
        assert comparison.vetted.apps_matched > 0
        assert comparison.vetted.match_rate > comparison.unvetted.match_rate

    def test_ad_library_analysis_runs(self, wild):
        _, _, results = wild
        groups = split_packages_by_offer_type(results.dataset)
        distributions = {d.label: d for d in ad_library_distribution(
            results.apk_scan, groups)}
        assert (distributions["Activity offers"].fraction_with_at_least(5)
                > distributions["No activity offers"].fraction_with_at_least(5))

    def test_arbitrage_stats_runs(self, wild):
        _, _, results = wild
        stats = arbitrage_stats(results.dataset, VETTED_IIPS)
        assert stats.total_apps == len(results.dataset.unique_packages())

    def test_enforcement_never_hits_baseline(self, wild):
        _, _, results = wild
        observations = {o.label: o for o in enforcement_decreases(
            results.archive, {
                "Baseline": results.baseline_packages,
                "Vetted": results.vetted_packages(),
            })}
        assert observations["Baseline"].decreased == 0
