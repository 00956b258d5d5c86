"""Tables 5-6, Figure 5, and the enforcement observations (Section 5.2).

All computations run over the crawl archive -- binned install counts
and chart membership as scraped every other day -- exactly the
observables the paper had.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.analysis.stats import ChiSquaredResult, safe_two_by_two
from repro.monitor.crawler import CrawlArchive
from repro.monitor.dataset import OfferDataset

DEFAULT_BASELINE_WINDOW_DAYS = 25  # the average campaign duration


@dataclass(frozen=True)
class GroupCount:
    """One row of a Table 5/6/7-style comparison."""

    label: str
    total: int
    positive: int

    @property
    def negative(self) -> int:
        return self.total - self.positive

    @property
    def fraction(self) -> float:
        return self.positive / self.total if self.total else 0.0


@dataclass(frozen=True)
class ImpactComparison:
    """Group rows plus the two chi-squared tests against baseline."""

    baseline: GroupCount
    vetted: GroupCount
    unvetted: GroupCount
    vetted_vs_baseline: ChiSquaredResult
    unvetted_vs_baseline: ChiSquaredResult

    def likelihood_ratio(self, group: GroupCount) -> float:
        if self.baseline.fraction == 0:
            return float("inf") if group.fraction > 0 else 1.0
        return group.fraction / self.baseline.fraction


def _window_for(package: str, dataset: Optional[OfferDataset],
                baseline_window: Tuple[int, int]) -> Tuple[int, int]:
    """The app's campaign window, or the baseline window if the dataset
    never observed it.  The dataset caches its windows per mutation
    epoch, so this costs no pass over the offer frame."""
    if dataset is None:
        return baseline_window
    try:
        return dataset.campaign_window(package)
    except KeyError:
        return baseline_window


def _series_in_window(archive: CrawlArchive, package: str,
                      window: Tuple[int, int]) -> List[Tuple[int, int]]:
    start, end = window
    return [(day, floor) for day, floor in archive.install_series(package)
            if start <= day <= end]


def install_increase_flag(archive: CrawlArchive, package: str,
                          window: Tuple[int, int]) -> Optional[bool]:
    """Did the binned install count grow between the first and last
    crawl inside the window?  None if the app was not crawled twice."""
    series = _series_in_window(archive, package, window)
    if len(series) < 2:
        return None
    return series[-1][1] > series[0][1]


def install_decrease_flag(archive: CrawlArchive, package: str) -> bool:
    """Did the binned install count ever drop (enforcement signature)?"""
    series = archive.install_series(package)
    return any(later < earlier
               for (_, earlier), (_, later) in zip(series, series[1:]))


def _compare_groups(archive: CrawlArchive, dataset: OfferDataset,
                    vetted_packages: Sequence[str],
                    unvetted_packages: Sequence[str],
                    baseline_packages: Sequence[str],
                    baseline_window: Tuple[int, int],
                    flag: Callable[[CrawlArchive, str, Tuple[int, int]],
                                   Optional[bool]]) -> ImpactComparison:
    """The three-group comparison of Tables 5 and 6: ``flag`` per app,
    in the baseline window for baseline apps and in the campaign window
    for advertised ones (``None`` leaves the app out), and each
    advertised group tested against the baseline."""

    def count(packages: Sequence[str], windows: Optional[OfferDataset],
              label: str) -> GroupCount:
        total = 0
        positive = 0
        for package in packages:
            window = _window_for(package, windows, baseline_window)
            result = flag(archive, package, window)
            if result is None:
                continue
            total += 1
            if result:
                positive += 1
        return GroupCount(label=label, total=total, positive=positive)

    baseline = count(baseline_packages, None, "Baseline")
    vetted = count(vetted_packages, dataset, "Vetted")
    unvetted = count(unvetted_packages, dataset, "Unvetted")
    return ImpactComparison(
        baseline=baseline, vetted=vetted, unvetted=unvetted,
        vetted_vs_baseline=safe_two_by_two(vetted.positive, vetted.negative,
                                      baseline.positive, baseline.negative),
        unvetted_vs_baseline=safe_two_by_two(unvetted.positive, unvetted.negative,
                                        baseline.positive, baseline.negative),
    )


def install_increase_comparison(
    archive: CrawlArchive,
    dataset: OfferDataset,
    vetted_packages: Sequence[str],
    unvetted_packages: Sequence[str],
    baseline_packages: Sequence[str],
    baseline_window: Tuple[int, int],
) -> ImpactComparison:
    """Table 5."""
    return _compare_groups(archive, dataset, vetted_packages,
                           unvetted_packages, baseline_packages,
                           baseline_window, install_increase_flag)


def _charted_in_window(archive: CrawlArchive, package: str,
                       window: Tuple[int, int]) -> Optional[bool]:
    """Did the app chart on a crawl after the window's first one?
    ``None`` when no chart crawl falls in the window or the app already
    charted on the first."""
    start, end = window
    crawl_days = [day for day in archive.chart_days_observed()
                  if start <= day <= end]
    if not crawl_days or archive.charted_on(package, crawl_days[0]):
        return None
    return any(archive.charted_on(package, day) for day in crawl_days[1:])


def top_chart_comparison(
    archive: CrawlArchive,
    dataset: OfferDataset,
    vetted_packages: Sequence[str],
    unvetted_packages: Sequence[str],
    baseline_packages: Sequence[str],
    baseline_window: Tuple[int, int],
) -> ImpactComparison:
    """Table 6 (apps already charting at window start are excluded)."""
    return _compare_groups(archive, dataset, vetted_packages,
                           unvetted_packages, baseline_packages,
                           baseline_window, _charted_in_window)


@dataclass(frozen=True)
class EnforcementObservation:
    """Section 5.2: install-count decreases per group."""

    label: str
    total: int
    decreased: int

    @property
    def fraction(self) -> float:
        return self.decreased / self.total if self.total else 0.0


def enforcement_decreases(archive: CrawlArchive,
                          groups: Dict[str, Sequence[str]]
                          ) -> List[EnforcementObservation]:
    observations = []
    for label, packages in groups.items():
        crawled = [p for p in packages if len(archive.install_series(p)) >= 2]
        decreased = sum(install_decrease_flag(archive, p) for p in crawled)
        observations.append(EnforcementObservation(
            label=label, total=len(crawled), decreased=decreased))
    return observations


@dataclass(frozen=True)
class RankTimelinePoint:
    day: int
    percentile: Optional[float]  # None = not in chart that day


@dataclass(frozen=True)
class CaseStudyTimeline:
    """Figure 5: one app's chart-rank trajectory around its campaign."""

    package: str
    chart: str
    campaign_start: int
    campaign_end: int
    points: List[RankTimelinePoint]

    def appeared_after_campaign_start(self) -> bool:
        before = [p for p in self.points
                  if p.day < self.campaign_start and p.percentile is not None]
        after = [p for p in self.points
                 if p.day >= self.campaign_start and p.percentile is not None]
        return not before and bool(after)


def case_study_timeline(archive: CrawlArchive, dataset: OfferDataset,
                        package: str, chart: str) -> CaseStudyTimeline:
    start, end = dataset.campaign_window(package)
    points = [RankTimelinePoint(day=day, percentile=percentile)
              for day, percentile in archive.rank_timeline(package, chart)]
    return CaseStudyTimeline(package=package, chart=chart,
                             campaign_start=start, campaign_end=end,
                             points=points)
