"""Engagement book and charts engine tests."""

import pytest

from repro.playstore.catalog import AppListing, Catalog, Developer
from repro.playstore.charts import ChartKind, ChartsEngine
from repro.playstore.engagement import (
    TRAILING_WINDOW_DAYS,
    DailyEngagement,
    EngagementBook,
)


def publish(catalog, package, genre="Tools", price=0.0):
    catalog.publish(AppListing(
        package=package, title=package, genre=genre,
        developer=Developer(developer_id=f"dev-{package}", name=package,
                            country="US"),
        release_day=0, price_usd=price))


class TestEngagementBook:
    def setup_method(self):
        self.book = EngagementBook()

    def test_sessions_accumulate(self):
        self.book.record("com.a", 0, DailyEngagement(
            active_users=1, sessions=1, session_seconds=60))
        self.book.record("com.a", 0, DailyEngagement(
            active_users=1, sessions=1, session_seconds=120,
            registrations=1))
        day = self.book.for_day("com.a", 0)
        assert day.active_users == 2
        assert day.sessions == 2
        assert day.session_seconds == 180
        assert day.registrations == 1
        assert day.mean_session_seconds == 90

    def test_missing_day_is_empty(self):
        day = self.book.for_day("com.a", 9)
        assert day.active_users == 0
        assert day.mean_session_seconds == 0.0

    def test_window_aggregation(self):
        for day in range(5):
            self.book.record("com.a", day, DailyEngagement(
                active_users=1, sessions=1, session_seconds=10))
        window = self.book.window("com.a", 1, 3)
        assert window.sessions == 3


class TestChartsEngine:
    def setup_method(self):
        self.catalog = Catalog()
        self.book = EngagementBook()
        self.engine = ChartsEngine(self.catalog, self.book, chart_size=3)

    def test_ranking_follows_engagement(self):
        for package, users in (("com.low", 5), ("com.mid", 20), ("com.top", 80)):
            publish(self.catalog, package)
            self.book.record(package, 0, DailyEngagement(active_users=users))
        snapshot = self.engine.snapshot(ChartKind.TOP_FREE, 0)
        assert [entry.package for entry in snapshot.entries] == [
            "com.top", "com.mid", "com.low"]
        assert snapshot.entries[0].rank == 1
        assert snapshot.entries[0].percentile == 1.0

    def test_trending_score_rises_with_activity(self):
        self.book.record("com.a", 0, DailyEngagement(
            active_users=1, sessions=1, session_seconds=60))
        low = self.engine.trending_score("com.a", 0)
        for _ in range(50):
            self.book.record("com.a", 0, DailyEngagement(
                active_users=1, sessions=1, session_seconds=600,
                registrations=1))
        assert self.engine.trending_score("com.a", 0) > low

    def test_trending_score_uses_trailing_window_only(self):
        self.book.record("com.a", 0, DailyEngagement(
            active_users=1, sessions=1, session_seconds=60))
        assert self.engine.trending_score("com.a", TRAILING_WINDOW_DAYS - 1) > 0
        assert self.engine.trending_score("com.a", TRAILING_WINDOW_DAYS) == 0.0

    def test_chart_size_truncates(self):
        for index in range(6):
            package = f"com.app{index}"
            publish(self.catalog, package)
            self.book.record(package, 0, DailyEngagement(active_users=index + 1))
        snapshot = self.engine.snapshot(ChartKind.TOP_FREE, 0)
        assert len(snapshot.entries) == 3

    def test_zero_score_apps_never_chart(self):
        publish(self.catalog, "com.ghost")
        snapshot = self.engine.snapshot(ChartKind.TOP_FREE, 0)
        assert not snapshot.contains("com.ghost")

    def test_games_chart_filters_non_games(self):
        publish(self.catalog, "com.game", genre="Puzzle")
        publish(self.catalog, "com.tool", genre="Tools")
        for package in ("com.game", "com.tool"):
            self.book.record(package, 0, DailyEngagement(active_users=10))
        snapshot = self.engine.snapshot(ChartKind.TOP_GAMES, 0)
        assert snapshot.contains("com.game")
        assert not snapshot.contains("com.tool")

    def test_free_chart_excludes_paid(self):
        publish(self.catalog, "com.paid", price=1.99)
        self.book.record("com.paid", 0, DailyEngagement(active_users=10))
        assert not self.engine.snapshot(ChartKind.TOP_FREE, 0).contains("com.paid")

    def test_grossing_ranks_by_revenue(self):
        publish(self.catalog, "com.rich")
        publish(self.catalog, "com.poor")
        self.book.record("com.rich", 0, DailyEngagement(purchase_revenue_usd=100))
        self.book.record("com.poor", 0, DailyEngagement(
            active_users=1000, purchase_revenue_usd=1))
        snapshot = self.engine.snapshot(ChartKind.TOP_GROSSING, 0)
        assert snapshot.entries[0].package == "com.rich"

    def test_deterministic_tie_break(self):
        publish(self.catalog, "com.b")
        publish(self.catalog, "com.a")
        for package in ("com.a", "com.b"):
            self.book.record(package, 0, DailyEngagement(active_users=5))
        snapshot = self.engine.snapshot(ChartKind.TOP_FREE, 0)
        assert [entry.package for entry in snapshot.entries] == ["com.a", "com.b"]

    def test_entry_lookup_helpers(self):
        publish(self.catalog, "com.a")
        self.book.record("com.a", 0, DailyEngagement(active_users=5))
        snapshot = self.engine.snapshot(ChartKind.TOP_FREE, 0)
        assert snapshot.ranks() == {"com.a": 1}
        assert snapshot.entry_for("com.a").rank == 1
        assert snapshot.entry_for("com.none") is None

    def test_bad_chart_size_rejected(self):
        with pytest.raises(ValueError):
            ChartsEngine(self.catalog, self.book, chart_size=0)
