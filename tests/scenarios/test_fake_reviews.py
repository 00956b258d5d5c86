"""Review-spam detector: synthetic feature checks plus an end-to-end run."""

from repro.core.wild_measurement import WildMeasurement, WildMeasurementConfig
from repro.playstore.reviews import AppReview, ReviewBook
from repro.scenarios import ReviewSpamDetector, parse_scenario
from repro.scenarios.fakereviews import (
    BURST_WEIGHT,
    BURST_WINDOW_DAYS,
    ReviewCampaignPlan,
)
from repro.simulation.scenarios import WildScenario, WildScenarioConfig
from repro.simulation.world import World


def organic_background(book, packages, days=30, rating=3):
    """One steady low-key review per app per window-ish cadence."""
    for package in packages:
        for day in range(0, days, 3):
            book.add(AppReview(reviewer_id=f"org-{package}-{day}",
                               package=package, day=day, hour=12.0,
                               rating=rating))


class TestBurstWindows:
    def test_flood_cannot_hide_behind_its_own_mean(self):
        # 60 paid reviews against 10 organic: a mean-based baseline
        # would be dragged up by the burst itself; the median window
        # count over the whole span stays at the organic level.
        book = ReviewBook()
        organic_background(book, ["app.flooded"])
        for i in range(60):
            book.add(AppReview(reviewer_id=f"paid-{i:03d}",
                               package="app.flooded", day=15, hour=10.0,
                               rating=5))
        detector = ReviewSpamDetector()
        bursts = detector._burst_windows(book)
        assert ("app.flooded", 15 // BURST_WINDOW_DAYS) in bursts

    def test_steady_organic_stream_has_no_bursts(self):
        book = ReviewBook()
        organic_background(book, ["app.calm", "app.quiet"])
        assert ReviewSpamDetector()._burst_windows(book) == set()


class TestScores:
    def build_book(self):
        book = ReviewBook()
        organic_background(book, ["app.a", "app.b", "app.c", "app.d"])
        # One professional account reviews all four apps inside bursts.
        for day, package in enumerate(["app.a", "app.b", "app.c", "app.d"]):
            for i in range(12):
                reviewer = "pro-0001" if i == 0 else f"filler-{package}-{i}"
                book.add(AppReview(reviewer_id=reviewer, package=package,
                                   day=9 + day * 3, hour=9.0, rating=5))
        return book

    def test_overlapping_burst_reviewer_flagged(self):
        book = self.build_book()
        flagged = ReviewSpamDetector().flag_reviewers(book)
        assert "pro-0001" in flagged

    def test_one_app_organic_reviewer_not_flagged(self):
        book = self.build_book()
        flagged = ReviewSpamDetector().flag_reviewers(book)
        assert not any(reviewer.startswith("org-") for reviewer in flagged)

    def test_low_rating_inside_burst_not_punished(self):
        # An honest 1-star review that happens to land inside a paid
        # flood must not pick up deviation score: deviation is
        # positive-only.
        book = self.build_book()
        book.add(AppReview(reviewer_id="honest-low", package="app.a",
                           day=9, hour=9.5, rating=1))
        scores = ReviewSpamDetector().scores(book)
        # Only the single burst hit contributes; no deviation on top.
        assert scores["honest-low"] <= BURST_WEIGHT + 1e-9


class TestCampaignPlan:
    def test_active_window(self):
        plan = ReviewCampaignPlan(package="app.x", start_day=4,
                                  duration_days=3, total_reviews=30)
        assert not plan.active_on(3)
        assert plan.active_on(4)
        assert plan.active_on(6)
        assert not plan.active_on(7)


class TestEndToEnd:
    def test_scenario_writes_reviews_and_detector_separates(self):
        pack = parse_scenario("fake-reviews")
        world = World(seed=7)
        scenario = WildScenario(world, WildScenarioConfig(
            scale=0.03, measurement_days=14, scenario=pack))
        scenario.build()
        WildMeasurement(world, scenario, WildMeasurementConfig(
            measurement_days=14)).run()
        book = world.store.reviews
        paid = scenario.paid_reviewer_ids()
        assert len(book) > 0
        assert paid, "campaigns must leave paid ground truth"
        report = ReviewSpamDetector().evaluate(book, paid)
        assert report.precision >= 0.9
        assert report.recall >= 0.45
        assert report.false_positive_rate <= 0.05

    def test_naive_run_writes_no_reviews(self):
        world = World(seed=7)
        scenario = WildScenario(world, WildScenarioConfig(
            scale=0.03, measurement_days=8))
        scenario.build()
        WildMeasurement(world, scenario, WildMeasurementConfig(
            measurement_days=8)).run()
        assert len(world.store.reviews) == 0
