"""Top-charts engine.

Three charts, as in the paper's case studies: top free, top games, and
top grossing.  Free/games rank by a *trending* score -- trailing
install velocity blended with user-engagement signals (active users,
time in app, registrations) -- and grossing ranks by trailing revenue.
This is the paper's stated mechanism: Google "places apps in top charts
based on user engagement metrics", so activity offers (which add
registrations and session time per install) move charts in a way
no-activity offers cannot.

Chart membership is what the crawler samples every other day and what
Table 6 / Figure 5 are computed from.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.playstore.catalog import Catalog
from repro.playstore.engagement import TRAILING_WINDOW_DAYS, EngagementBook
from repro.playstore.ledger import InstallLedger


class ChartKind(enum.Enum):
    TOP_FREE = "top_free"
    TOP_GAMES = "top_games"
    TOP_GROSSING = "top_grossing"


DEFAULT_CHART_SIZE = 200


@dataclass(frozen=True)
class ChartEntry:
    package: str
    rank: int          # 1 = best
    score: float
    percentile: float  # 1.0 = top of chart, 0.0 = bottom


@dataclass(frozen=True)
class ChartSnapshot:
    """One chart on one day."""

    kind: ChartKind
    day: int
    entries: List[ChartEntry]

    def ranks(self) -> Dict[str, int]:
        return {entry.package: entry.rank for entry in self.entries}

    def contains(self, package: str) -> bool:
        return any(entry.package == package for entry in self.entries)

    def entry_for(self, package: str) -> Optional[ChartEntry]:
        for entry in self.entries:
            if entry.package == package:
                return entry
        return None


#: Trending-score weights (per 7-day trailing window).
INSTALL_VELOCITY_WEIGHT = 0.35
ACTIVE_USER_WEIGHT = 0.01
SESSION_SECOND_WEIGHT = 0.00003
REGISTRATION_WEIGHT = 0.8


class ChartsEngine:
    """Computes chart snapshots from the catalog, the install ledger,
    and the engagement book."""

    def __init__(self, catalog: Catalog, engagement: EngagementBook,
                 chart_size: int = DEFAULT_CHART_SIZE,
                 ledger: Optional[InstallLedger] = None) -> None:
        if chart_size <= 0:
            raise ValueError("chart size must be positive")
        self._catalog = catalog
        self._engagement = engagement
        self._ledger = ledger
        self.chart_size = chart_size

    def _eligible(self, kind: ChartKind) -> List[str]:
        packages = []
        for package in self._catalog.packages():
            listing = self._catalog.get(package)
            if kind is ChartKind.TOP_GAMES and not listing.is_game:
                continue
            if kind is ChartKind.TOP_FREE and not listing.is_free:
                continue
            packages.append(package)
        return packages

    def trending_score(self, package: str, day: int) -> float:
        """Install velocity + engagement blend over the trailing window."""
        start = max(0, day - TRAILING_WINDOW_DAYS + 1)
        window = self._engagement.window(package, start, day)
        velocity = 0
        if self._ledger is not None:
            velocity = self._ledger.installs_in_window(package, start, day)
        return (INSTALL_VELOCITY_WEIGHT * velocity
                + ACTIVE_USER_WEIGHT * window.active_users
                + SESSION_SECOND_WEIGHT * window.session_seconds
                + REGISTRATION_WEIGHT * window.registrations)

    def _score(self, kind: ChartKind, package: str, day: int) -> float:
        if kind is ChartKind.TOP_GROSSING:
            return self._engagement.grossing_score(package, day)
        return self.trending_score(package, day)

    def snapshot(self, kind: ChartKind, day: int) -> ChartSnapshot:
        scored = [
            (self._score(kind, package, day), package)
            for package in self._eligible(kind)
        ]
        # Deterministic tie-break by package name; zero-score apps never chart.
        scored = [(score, package) for score, package in scored if score > 0]
        scored.sort(key=lambda pair: (-pair[0], pair[1]))
        top = scored[:self.chart_size]
        entries = [
            ChartEntry(
                package=package,
                rank=index + 1,
                score=score,
                percentile=1.0 - index / max(1, self.chart_size),
            )
            for index, (score, package) in enumerate(top)
        ]
        return ChartSnapshot(kind=kind, day=day, entries=entries)
