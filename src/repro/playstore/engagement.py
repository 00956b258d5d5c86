"""Per-app, per-day user-engagement accounting.

These are the metrics the paper says incentivized *activity* offers
manipulate: daily active users, session counts and lengths, registered
accounts, and in-app revenue.  The top-charts engine ranks apps by a
score computed from this book (Google Play "places apps in top charts
based on user engagement metrics", paper Section 4.3.1).

Each package's days live in one day-indexed column per
:class:`DailyEngagement` field (:mod:`repro.playstore.columns`).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Dict, Tuple

from repro.playstore.columns import day_span, extend_to

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

    @property
    def mean_session_seconds(self) -> float:
        if self.sessions == 0:
            return 0.0
        return self.session_seconds / self.sessions


#: Column type codes in :class:`DailyEngagement` field order.
_TYPECODES = ("q", "q", "d", "q", "d", "q")
#: Index of the ``purchase_revenue_usd`` column.
_REVENUE = 4


class EngagementBook:
    """The store's ledger of engagement signals."""

    def __init__(self) -> None:
        self._columns: Dict[str, Tuple[array, ...]] = {}

    def record(self, package: str, day: int, engagement: DailyEngagement) -> None:
        if day < 0:
            raise ValueError("negative day")
        columns = self._columns.get(package)
        if columns is None:
            columns = self._columns[package] = tuple(
                array(code) for code in _TYPECODES)
        for column in columns:
            extend_to(column, day)
        users, sessions, seconds, registrations, revenue, ads = columns
        users[day] += engagement.active_users
        sessions[day] += engagement.sessions
        seconds[day] += engagement.session_seconds
        registrations[day] += engagement.registrations
        revenue[day] += engagement.purchase_revenue_usd
        ads[day] += engagement.ad_impressions

    def for_day(self, package: str, day: int) -> DailyEngagement:
        columns = self._columns.get(package)
        if columns is None or not 0 <= day < len(columns[0]):
            return DailyEngagement()
        return DailyEngagement(*(column[day] for column in columns))

    def window(self, package: str, start_day: int, end_day: int) -> DailyEngagement:
        """Aggregate over [start_day, end_day] inclusive.

        Seconds and revenue fold day by day from ``0.0`` in day order,
        the sum a running ``+=`` makes: float addition does not
        associate, and chart scores reach the output bytes.  A stored
        day starts as ``+0.0 + x``, so it is never ``-0.0`` and a zero
        day adds nothing.
        """
        columns = self._columns.get(package)
        if columns is None:
            return DailyEngagement()
        days = day_span(start_day, end_day)
        return DailyEngagement(*(
            reduce(add, column[days], 0.0) if column.typecode == "d"
            else sum(column[days])
            for column in columns))

    def grossing_score(self, package: str, day: int) -> float:
        start = max(0, day - TRAILING_WINDOW_DAYS + 1)
        columns = self._columns.get(package)
        revenue = columns[_REVENUE] if columns is not None else ()
        # One value per trailing day, zeros past the column's end
        # included, added by ``sum``: ``sum`` compensates float error
        # from Python 3.12 and a fold does not, so another primitive or
        # another sequence could move a score's last bit (or turn 0.0
        # into 0) on some interpreter.
        return sum(revenue[d] if d < len(revenue) else 0.0
                   for d in range(start, day + 1))
