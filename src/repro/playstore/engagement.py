"""Per-app, per-day user-engagement accounting.

These are the metrics the paper says incentivized *activity* offers
manipulate: daily active users, session counts and lengths, registered
accounts, and in-app revenue.  The top-charts engine ranks apps by a
score computed from this book (Google Play "places apps in top charts
based on user engagement metrics", paper Section 4.3.1).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

#: Days of engagement every chart score looks back over.
TRAILING_WINDOW_DAYS = 7


@dataclass
class DailyEngagement:
    """Aggregated engagement for one app on one day."""

    active_users: int = 0
    sessions: int = 0
    session_seconds: float = 0.0
    registrations: int = 0
    purchase_revenue_usd: float = 0.0
    ad_impressions: int = 0

    def merge(self, other: "DailyEngagement") -> None:
        self.active_users += other.active_users
        self.sessions += other.sessions
        self.session_seconds += other.session_seconds
        self.registrations += other.registrations
        self.purchase_revenue_usd += other.purchase_revenue_usd
        self.ad_impressions += other.ad_impressions

    @property
    def mean_session_seconds(self) -> float:
        if self.sessions == 0:
            return 0.0
        return self.session_seconds / self.sessions


class EngagementBook:
    """The store's ledger of engagement signals."""

    def __init__(self) -> None:
        self._days: Dict[Tuple[str, int], DailyEngagement] = defaultdict(DailyEngagement)

    def record(self, package: str, day: int, engagement: DailyEngagement) -> None:
        self._days[(package, day)].merge(engagement)

    def record_session(self, package: str, day: int, seconds: float,
                       registered: bool = False,
                       purchase_usd: float = 0.0,
                       ad_impressions: int = 0) -> None:
        """Record one user session (one active user, one session)."""
        self.record(package, day, DailyEngagement(
            active_users=1,
            sessions=1,
            session_seconds=seconds,
            registrations=1 if registered else 0,
            purchase_revenue_usd=purchase_usd,
            ad_impressions=ad_impressions,
        ))

    def for_day(self, package: str, day: int) -> DailyEngagement:
        found = self._days.get((package, day))
        if found is None:
            return DailyEngagement()
        return found

    def window(self, package: str, start_day: int, end_day: int) -> DailyEngagement:
        """Aggregate over [start_day, end_day] inclusive."""
        total = DailyEngagement()
        for day in range(start_day, end_day + 1):
            found = self._days.get((package, day))
            if found is not None:
                total.merge(found)
        return total

    def revenue_through(self, package: str, day: int) -> float:
        return sum(e.purchase_revenue_usd
                   for (pkg, d), e in self._days.items()
                   if pkg == package and d <= day)

    def grossing_score(self, package: str, day: int) -> float:
        start = max(0, day - TRAILING_WINDOW_DAYS + 1)
        return sum(self.for_day(package, d).purchase_revenue_usd
                   for d in range(start, day + 1))
