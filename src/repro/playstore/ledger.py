"""Install ledger: every install the store has recorded, by source.

The ledger distinguishes install *sources* so that (a) the developer
console can report acquisition channels, and (b) the enforcement engine
can retroactively filter installs it attributes to incentivized
campaigns -- the observable the paper uses to gauge Google's policing
("a decrease in the install counts of advertised apps").

Internally the ledger keeps per-package daily indexes so that the
profile front end (which computes cumulative counts on every crawl) and
the charts engine (which computes trailing install velocity for every
eligible app) stay O(days) per query instead of O(total batches).
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple


class InstallSource(enum.Enum):
    """How an install reached the store."""

    ORGANIC = "organic"                # store search / top charts / word of mouth
    INCENTIVIZED = "incentivized"      # delivered by an IIP campaign
    NON_INCENT_AD = "non_incent_ad"    # regular (non-incentivized) install ads


@dataclass(frozen=True)
class InstallBatch:
    """``count`` installs of one app on one day from one source."""

    package: str
    day: int
    source: InstallSource
    count: int
    campaign_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.count <= 0:
            raise ValueError("batch count must be positive")
        if self.day < 0:
            raise ValueError("negative day")


class InstallLedger:
    """Append-only record of install batches plus enforcement removals."""

    def __init__(self) -> None:
        self._batches: List[InstallBatch] = []
        # package -> day -> source -> count
        self._daily: Dict[str, Dict[int, Dict[InstallSource, int]]] = (
            defaultdict(lambda: defaultdict(lambda: defaultdict(int))))
        # package -> day -> gross count (all sources); derived mirror of
        # ``_daily`` so the cumulative-total query the frontend runs on
        # every profile render sums ints instead of per-source dicts.
        self._gross: Dict[str, Dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self._campaign_totals: Dict[str, int] = defaultdict(int)
        self._campaign_batches: Dict[str, List[InstallBatch]] = defaultdict(list)
        self._removed: Dict[Tuple[str, int], int] = defaultdict(int)
        # (package, day-removal-was-applied) -> count removed
        self._removed_by_package: Dict[str, Dict[int, int]] = (
            defaultdict(lambda: defaultdict(int)))

    # -- recording -----------------------------------------------------------

    def record(self, batch: InstallBatch) -> None:
        self._batches.append(batch)
        self._daily[batch.package][batch.day][batch.source] += batch.count
        self._gross[batch.package][batch.day] += batch.count
        if batch.campaign_id is not None:
            self._campaign_totals[batch.campaign_id] += batch.count
            self._campaign_batches[batch.campaign_id].append(batch)

    def record_install(self, package: str, day: int, source: InstallSource,
                       campaign_id: Optional[str] = None) -> None:
        self.record(InstallBatch(package=package, day=day, source=source,
                                 count=1, campaign_id=campaign_id))

    def remove_installs(self, package: str, day: int, count: int) -> None:
        """Enforcement: filter ``count`` installs effective on ``day``."""
        if count <= 0:
            raise ValueError("removal count must be positive")
        self._removed[(package, day)] += count
        self._removed_by_package[package][day] += count

    # -- checkpoint/restore ---------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """Batches in append order plus removals; the daily/campaign
        indexes are derived, so restore rebuilds them via ``record``."""
        from repro.recovery.state import join_key
        return {
            "batches": [
                [batch.package, batch.day, batch.source.value,
                 batch.count, batch.campaign_id]
                for batch in self._batches],
            "removed": {
                join_key(package, str(day)): count
                for (package, day), count in sorted(self._removed.items())},
        }

    def load_state(self, state: Dict[str, object]) -> None:
        from repro.recovery.state import split_key
        self.__init__()  # type: ignore[misc]
        for package, day, source, count, campaign_id in (
                state["batches"]):  # type: ignore[union-attr]
            self.record(InstallBatch(
                package=str(package), day=int(day),
                source=InstallSource(source), count=int(count),
                campaign_id=(None if campaign_id is None
                             else str(campaign_id))))
        for key, count in state["removed"].items():  # type: ignore[union-attr]
            package, day = split_key(key)
            self._removed[(package, int(day))] = int(count)
            self._removed_by_package[package][int(day)] = int(count)

    # -- queries -----------------------------------------------------------

    def installs_by_source(self, package: str) -> Dict[InstallSource, int]:
        totals: Dict[InstallSource, int] = {source: 0 for source in InstallSource}
        for by_source in self._daily.get(package, {}).values():
            for source, count in by_source.items():
                totals[source] += count
        return totals

    def total_installs(self, package: str, through_day: Optional[int] = None) -> int:
        """Cumulative installs net of enforcement removals (floored at 0)."""
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

    def daily_installs(self, package: str, day: int) -> Dict[InstallSource, int]:
        totals: Dict[InstallSource, int] = {source: 0 for source in InstallSource}
        for source, count in self._daily.get(package, {}).get(day, {}).items():
            totals[source] += count
        return totals

    def installs_in_window(self, package: str, start_day: int,
                           end_day: int) -> int:
        """Gross installs over [start_day, end_day] inclusive (velocity)."""
        days = self._gross.get(package)
        if not days:
            return 0
        # A long-running app accumulates one entry per active day, so
        # probe the (typically 7-day) window rather than scanning the
        # whole history once the history is the bigger side.
        if end_day - start_day + 1 < len(days):
            return sum(days.get(day, 0)
                       for day in range(start_day, end_day + 1))
        return sum(count for day, count in days.items()
                   if start_day <= day <= end_day)

    def campaign_installs(self, campaign_id: str) -> int:
        return self._campaign_totals.get(campaign_id, 0)

    def campaign_batches(self, campaign_id: str) -> List[InstallBatch]:
        return list(self._campaign_batches.get(campaign_id, ()))

    def packages(self) -> Iterable[str]:
        return sorted(self._daily)

    def removals_for(self, package: str) -> int:
        removals = self._removed_by_package.get(package)
        return sum(removals.values()) if removals else 0
