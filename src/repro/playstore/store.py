"""The Play Store facade: catalog + ledgers + charts + console + policy."""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.playstore.bins import bin_floor, bin_label
from repro.playstore.catalog import AppListing, Catalog
from repro.playstore.charts import ChartKind, ChartsEngine, ChartSnapshot
from repro.playstore.console import DeveloperConsole
from repro.playstore.engagement import DailyEngagement, EngagementBook
from repro.playstore.ledger import InstallBatch, InstallLedger, InstallSource
from repro.playstore.policy import CampaignSignals, EnforcementEngine
from repro.playstore.reviews import AppReview, ReviewBook


class PlayStore:
    """One coherent store instance.

    This object is the single source of truth the simulated world writes
    into (installs, sessions) and the frontend/crawlers read out of
    (public profiles, top charts).
    """

    def __init__(self) -> None:
        self.catalog = Catalog()
        self.ledger = InstallLedger()
        self.engagement = EngagementBook()
        self.charts = ChartsEngine(self.catalog, self.engagement,
                                   ledger=self.ledger)
        self.console = DeveloperConsole(self.catalog, self.ledger)
        self.enforcement = EnforcementEngine(self.ledger)
        self.reviews = ReviewBook()

    # -- write path ------------------------------------------------------------

    def publish(self, listing: AppListing) -> None:
        self.catalog.publish(listing)

    def record_install(self, package: str, day: int, source: InstallSource,
                       campaign_id: Optional[str] = None) -> None:
        if package not in self.catalog:
            raise KeyError(f"install for unpublished app {package!r}")
        self.ledger.record_install(package, day, source, campaign_id)

    def record_install_batch(self, package: str, day: int,
                             source: InstallSource, count: int,
                             campaign_id: Optional[str] = None) -> None:
        if package not in self.catalog:
            raise KeyError(f"install for unpublished app {package!r}")
        if count == 0:
            return
        self.ledger.record(InstallBatch(package=package, day=day,
                                        source=source, count=count,
                                        campaign_id=campaign_id))

    def record_engagement(self, package: str, day: int,
                          engagement: DailyEngagement) -> None:
        self.engagement.record(package, day, engagement)

    def review_campaign(self, signals: CampaignSignals, day: int,
                        rng: random.Random) -> None:
        self.enforcement.review(signals, day, rng)

    def record_review(self, review: AppReview) -> None:
        if review.package not in self.catalog:
            raise KeyError(f"review for unpublished app {review.package!r}")
        self.reviews.add(review)

    # -- read path (public observables) ---------------------------------------

    def displayed_installs(self, package: str, day: int) -> int:
        """The lower-bound binned install count shown on the profile."""
        return bin_floor(self.ledger.total_installs(package, day))

    def public_profile(self, package: str, day: int) -> Dict[str, object]:
        """The profile page payload, as the crawler scrapes it."""
        listing = self.catalog.get(package)
        developer = listing.developer
        total = self.ledger.total_installs(package, day)
        profile: Dict[str, object] = {
            "package": listing.package,
            "title": listing.title,
            "genre": listing.genre,
            "is_game": listing.is_game,
            "price_usd": listing.price_usd,
            "has_in_app_purchases": listing.has_in_app_purchases,
            "release_day": listing.release_day,
            "installs_floor": bin_floor(total),
            "installs_label": bin_label(total),
            "developer": {
                "id": developer.developer_id,
                "name": developer.name,
                "country": developer.country,
                "website": developer.website,
                "email": developer.email,
            },
        }
        # Rating fields appear only once the app has reviews: the naive
        # populations never review anything, so the frozen naive crawl
        # exports stay byte-identical.
        count = self.reviews.review_count(package)
        if count:
            profile["review_count"] = count
            profile["rating"] = round(self.reviews.mean_rating(package), 2)
        return profile

    def chart_snapshot(self, kind: ChartKind, day: int) -> ChartSnapshot:
        return self.charts.snapshot(kind, day)
