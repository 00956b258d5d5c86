"""The day-column engagement book and install ledger against the
dict-of-days store they replaced.

``DictEngagementBook`` and ``DictInstallLedger`` are that store's query
code, kept as the reference: every query must agree with it in value
and in type, floats bit for bit.
"""

import gc
import json
import types
from collections import defaultdict
from dataclasses import fields
from typing import Dict, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.playstore.engagement import (
    TRAILING_WINDOW_DAYS,
    DailyEngagement,
    EngagementBook,
)
from repro.playstore.ledger import InstallBatch, InstallLedger, InstallSource


def merge(total, other):
    total.active_users += other.active_users
    total.sessions += other.sessions
    total.session_seconds += other.session_seconds
    total.registrations += other.registrations
    total.purchase_revenue_usd += other.purchase_revenue_usd
    total.ad_impressions += other.ad_impressions


class DictEngagementBook:
    """Reference: one ``DailyEngagement`` per (package, day)."""

    def __init__(self):
        self._days: Dict[Tuple[str, int], DailyEngagement] = defaultdict(
            DailyEngagement)

    def record(self, package, day, engagement):
        merge(self._days[(package, day)], engagement)

    def for_day(self, package, day):
        found = self._days.get((package, day))
        if found is None:
            return DailyEngagement()
        return found

    def window(self, package, start_day, end_day):
        total = DailyEngagement()
        for day in range(start_day, end_day + 1):
            found = self._days.get((package, day))
            if found is not None:
                merge(total, found)
        return total

    def grossing_score(self, package, day):
        start = max(0, day - TRAILING_WINDOW_DAYS + 1)
        return sum(self.for_day(package, d).purchase_revenue_usd
                   for d in range(start, day + 1))


class DictInstallLedger:
    """Reference: nested per-day dicts of counts by source."""

    def __init__(self):
        self._daily = defaultdict(lambda: defaultdict(lambda: defaultdict(int)))
        self._gross = defaultdict(lambda: defaultdict(int))
        self._campaign_totals = defaultdict(int)
        self._removed_by_package = defaultdict(lambda: defaultdict(int))

    def record(self, batch):
        self._daily[batch.package][batch.day][batch.source] += batch.count
        self._gross[batch.package][batch.day] += batch.count
        if batch.campaign_id is not None:
            self._campaign_totals[batch.campaign_id] += batch.count

    def remove_installs(self, package, day, count):
        self._removed_by_package[package][day] += count

    def installs_by_source(self, package):
        totals = {source: 0 for source in InstallSource}
        for by_source in self._daily.get(package, {}).values():
            for source, count in by_source.items():
                totals[source] += count
        return totals

    def total_installs(self, package, through_day=None):
        days = self._gross.get(package)
        if days is None:
            gross = 0
        elif through_day is None:
            gross = sum(days.values())
        else:
            gross = sum(count for day, count in days.items()
                        if day <= through_day)
        removals = self._removed_by_package.get(package)
        if removals is None:
            removed = 0
        elif through_day is None:
            removed = sum(removals.values())
        else:
            removed = sum(count for day, count in removals.items()
                          if day <= through_day)
        return max(0, gross - removed)

    def daily_installs(self, package, day):
        totals = {source: 0 for source in InstallSource}
        for source, count in self._daily.get(package, {}).get(day, {}).items():
            totals[source] += count
        return totals

    def installs_in_window(self, package, start_day, end_day):
        days = self._gross.get(package)
        if not days:
            return 0
        if end_day - start_day + 1 < len(days):
            return sum(days.get(day, 0)
                       for day in range(start_day, end_day + 1))
        return sum(count for day, count in days.items()
                   if start_day <= day <= end_day)

    def campaign_installs(self, campaign_id):
        return self._campaign_totals.get(campaign_id, 0)

    def packages(self):
        return sorted(self._daily)


PACKAGES = ("com.a", "com.b", "com.c")
#: Queried too: a package nothing was recorded for.
QUERY_PACKAGES = PACKAGES + ("com.none",)
CAMPAIGNS = ("c1", "c2", "c3")
LAST_DAY = 40
#: Every query day: negative, recorded and past the last recorded day.
QUERY_DAYS = range(-3, LAST_DAY + TRAILING_WINDOW_DAYS + 2)

days = st.integers(0, LAST_DAY)
counts = st.integers(0, 10**6)
amounts = st.floats(min_value=0.0, max_value=1e9, allow_nan=False,
                    allow_infinity=False)
engagements = st.builds(
    DailyEngagement, active_users=counts, sessions=counts,
    session_seconds=amounts, registrations=counts,
    purchase_revenue_usd=amounts, ad_impressions=counts)
installs = st.builds(
    InstallBatch, package=st.sampled_from(PACKAGES), day=days,
    source=st.sampled_from(InstallSource), count=st.integers(1, 10**4),
    campaign_id=st.one_of(st.none(), st.sampled_from(CAMPAIGNS)))
records = st.fixed_dictionaries({
    # Lists in draw order: days arrive sparse and out of order.
    "engagement": st.lists(st.tuples(st.sampled_from(PACKAGES), days,
                                     engagements), max_size=40),
    "installs": st.lists(installs, max_size=40),
    "removals": st.lists(st.tuples(st.sampled_from(PACKAGES),
                                   st.integers(0, LAST_DAY + 5),
                                   st.integers(1, 10**4)), max_size=5),
})
spans = st.lists(st.tuples(st.integers(-10, LAST_DAY + 10),
                           st.integers(-10, LAST_DAY + 10)),
                 min_size=1, max_size=12)


def exact(value):
    """``value`` with its type spelled out and floats as ``float.hex``."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, DailyEngagement):
        return tuple(exact(getattr(value, f.name)) for f in fields(value))
    if isinstance(value, dict):
        return ("dict", [(exact(k), exact(v)) for k, v in value.items()])
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, [exact(item) for item in value])
    return (type(value).__name__, value)


def fill(drawn, book, ledger):
    for package, day, engagement in drawn["engagement"]:
        book.record(package, day, engagement)
    for batch in drawn["installs"]:
        ledger.record(batch)
    for package, day, count in drawn["removals"]:
        ledger.remove_installs(package, day, count)


def book_answers(book, windows):
    answers = []
    for package in QUERY_PACKAGES:
        answers.append([book.for_day(package, day) for day in QUERY_DAYS])
        answers.append([book.grossing_score(package, day)
                        for day in QUERY_DAYS])
        answers.append([book.window(package, start, end)
                        for start, end in windows])
    return exact(answers)


def ledger_answers(ledger, windows):
    answers = [list(ledger.packages()),
               [ledger.campaign_installs(c) for c in CAMPAIGNS + ("c0",)]]
    for package in QUERY_PACKAGES:
        answers.append([ledger.total_installs(package, through_day)
                        for through_day in (None,) + tuple(QUERY_DAYS)])
        answers.append([ledger.daily_installs(package, day)
                        for day in QUERY_DAYS])
        answers.append([ledger.installs_in_window(package, start, end)
                        for start, end in windows])
        answers.append(ledger.installs_by_source(package))
    return exact(answers)


@settings(max_examples=150, deadline=None)
@given(drawn=records, windows=spans)
def test_columns_answer_as_the_dict_reference(drawn, windows):
    book, reference_book = EngagementBook(), DictEngagementBook()
    ledger, reference_ledger = InstallLedger(), DictInstallLedger()
    fill(drawn, book, ledger)
    fill(drawn, reference_book, reference_ledger)
    assert book_answers(book, windows) == book_answers(reference_book,
                                                       windows)
    assert ledger_answers(ledger, windows) == ledger_answers(
        reference_ledger, windows)


@settings(max_examples=50, deadline=None)
@given(drawn=records, windows=spans)
def test_ledger_state_round_trip(drawn, windows):
    ledger = InstallLedger()
    fill(drawn, EngagementBook(), ledger)
    state = ledger.state_dict()
    restored = InstallLedger()
    # Through JSON, as a checkpoint stores it.
    restored.load_state(json.loads(json.dumps(state)))
    assert ledger_answers(restored, windows) == ledger_answers(ledger,
                                                               windows)
    assert restored.state_dict() == state


def reachable(root):
    """How many objects ``root`` reaches, not following classes,
    modules or functions (shared by every instance)."""
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(
                obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return len(seen)


def objects_after(days):
    book, ledger = EngagementBook(), InstallLedger()
    for day in range(days):
        book.record("com.a", day, DailyEngagement(
            active_users=1, sessions=1, session_seconds=30.0 + day,
            registrations=1 if day % 2 == 0 else 0,
            purchase_revenue_usd=0.99))
        for source in InstallSource:
            ledger.record(InstallBatch("com.a", day, source, 1 + day % 5,
                                       campaign_id="c1"))
    return reachable(book) + reachable(ledger)


def test_object_count_does_not_grow_with_days():
    assert objects_after(1000) == objects_after(10)


def test_negative_day_rejected():
    with pytest.raises(ValueError, match="negative day"):
        EngagementBook().record("com.a", -1, DailyEngagement(active_users=1))
