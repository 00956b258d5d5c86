"""Install ledger: every install the store has recorded, by source.

The ledger distinguishes install *sources* so that (a) the developer
console can report acquisition channels, and (b) the enforcement engine
can retroactively filter installs it attributes to incentivized
campaigns -- the observable the paper uses to gauge Google's policing
("a decrease in the install counts of advertised apps").

Each package's installs live in one day-indexed count column per
source (:mod:`repro.playstore.columns`), so the cumulative count the
profile front end computes on every crawl and the trailing install
velocity the charts engine computes for every eligible app are slice
sums.  Campaign totals and enforcement removals are small maps beside
the columns.
"""

from __future__ import annotations

import enum
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import DefaultDict, Dict, Iterable, Optional, Tuple

from repro.checkpointed import Checkpointed
from repro.playstore.columns import day_span, extend_to


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


_SOURCES = tuple(InstallSource)
#: The columns of a package with no installs.
_NO_INSTALLS = ((),) * len(_SOURCES)


class InstallLedger(Checkpointed):
    """Per-source daily install counts plus enforcement removals."""

    _STATE = ("_installs", "_campaign_totals", "_removed")
    #: package -> one count column per source, in ``_SOURCES`` order
    _installs: Dict[str, Tuple[array, ...]]
    _campaign_totals: DefaultDict[str, int]
    #: package -> day the removal was applied -> count removed
    _removed: DefaultDict[str, DefaultDict[int, int]]

    def __init__(self) -> None:
        self._installs = {}
        self._campaign_totals = defaultdict(int)
        self._removed = defaultdict(lambda: defaultdict(int))

    # -- recording -----------------------------------------------------------

    def record(self, batch: InstallBatch) -> None:
        columns = self._installs.get(batch.package)
        if columns is None:
            columns = self._installs[batch.package] = tuple(
                array("q") for _ in _SOURCES)
        column = columns[_SOURCES.index(batch.source)]
        extend_to(column, batch.day)
        column[batch.day] += batch.count
        if batch.campaign_id is not None:
            self._campaign_totals[batch.campaign_id] += batch.count

    def record_install(self, package: str, day: int, source: InstallSource,
                       campaign_id: Optional[str] = None) -> None:
        self.record(InstallBatch(package=package, day=day, source=source,
                                 count=1, campaign_id=campaign_id))

    def remove_installs(self, package: str, day: int, count: int) -> None:
        """Enforcement: filter ``count`` installs effective on ``day``."""
        if count <= 0:
            raise ValueError("removal count must be positive")
        self._removed[package][day] += count

    # -- queries -----------------------------------------------------------

    def installs_by_source(self, package: str) -> Dict[InstallSource, int]:
        columns = self._installs.get(package, _NO_INSTALLS)
        return {source: sum(column)
                for source, column in zip(_SOURCES, columns)}

    def total_installs(self, package: str, through_day: Optional[int] = None) -> int:
        """Cumulative installs net of enforcement removals (floored at 0)."""
        days = slice(None) if through_day is None else day_span(0, through_day)
        gross = sum(sum(column[days])
                    for column in self._installs.get(package, _NO_INSTALLS))
        removed = sum(count for day, count
                      in self._removed.get(package, {}).items()
                      if through_day is None or day <= through_day)
        return max(0, gross - removed)

    def daily_installs(self, package: str, day: int) -> Dict[InstallSource, int]:
        columns = self._installs.get(package, _NO_INSTALLS)
        return {source: column[day] if 0 <= day < len(column) else 0
                for source, column in zip(_SOURCES, columns)}

    def installs_in_window(self, package: str, start_day: int,
                           end_day: int) -> int:
        """Gross installs over [start_day, end_day] inclusive (velocity)."""
        days = day_span(start_day, end_day)
        return sum(sum(column[days])
                   for column in self._installs.get(package, _NO_INSTALLS))

    def campaign_installs(self, campaign_id: str) -> int:
        return self._campaign_totals.get(campaign_id, 0)

    def packages(self) -> Iterable[str]:
        return sorted(self._installs)

