"""Developer-console analytics.

The paper cross-checks its honey-app telemetry against "analytics
provided by Google Play Store's developer console": installs per day,
broken down by acquisition channel, visible only to the app's owner.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.playstore.catalog import Catalog
from repro.playstore.ledger import InstallLedger, InstallSource


@dataclass(frozen=True)
class AcquisitionReport:
    """Installs-by-channel for one app over one day range (inclusive)."""

    package: str
    start_day: int
    end_day: int
    by_source: Dict[InstallSource, int]

    @property
    def total(self) -> int:
        return sum(self.by_source.values())

    @property
    def organic(self) -> int:
        return self.by_source.get(InstallSource.ORGANIC, 0)


class DeveloperConsole:
    """Owner-scoped analytics over the install ledger."""

    def __init__(self, catalog: Catalog, ledger: InstallLedger) -> None:
        self._catalog = catalog
        self._ledger = ledger

    def _authorize(self, developer_id: str, package: str) -> None:
        listing = self._catalog.get(package)
        if listing.developer.developer_id != developer_id:
            raise PermissionError(
                f"developer {developer_id!r} does not own {package!r}")

    def acquisition_report(self, developer_id: str, package: str,
                           start_day: int, end_day: int) -> AcquisitionReport:
        self._authorize(developer_id, package)
        totals: Dict[InstallSource, int] = {source: 0 for source in InstallSource}
        for day in range(start_day, end_day + 1):
            for source, count in self._ledger.daily_installs(package, day).items():
                totals[source] += count
        return AcquisitionReport(package=package, start_day=start_day,
                                 end_day=end_day, by_source=totals)

    def daily_install_series(self, developer_id: str, package: str,
                             start_day: int, end_day: int) -> List[int]:
        self._authorize(developer_id, package)
        return [
            sum(self._ledger.daily_installs(package, day).values())
            for day in range(start_day, end_day + 1)
        ]
