"""Tables 7-8: investor funding after incentivized install campaigns."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.characterize import classify_dataset
from repro.analysis.stats import ChiSquaredResult, mean, safe_two_by_two
from repro.crunchbase.database import CrunchbaseSnapshot
from repro.crunchbase.matcher import DeveloperMatcher, MatchResult
from repro.iip.offers import OfferCategory
from repro.monitor.crawler import CrawlArchive
from repro.monitor.dataset import OfferDataset


@dataclass(frozen=True)
class FundingGroup:
    """One row of Table 7, plus the match-rate context."""

    label: str
    apps_considered: int         # apps in the group
    apps_matched: int            # matched in the Crunchbase snapshot
    funded_after_campaign: int   # matched apps whose org raised after start

    @property
    def match_rate(self) -> float:
        return self.apps_matched / self.apps_considered if self.apps_considered else 0.0

    @property
    def funded_fraction(self) -> float:
        return (self.funded_after_campaign / self.apps_matched
                if self.apps_matched else 0.0)


@dataclass(frozen=True)
class FundingComparison:
    baseline: FundingGroup
    vetted: FundingGroup
    unvetted: FundingGroup
    vetted_vs_baseline: ChiSquaredResult
    unvetted_vs_baseline: ChiSquaredResult
    public_company_apps: int     # developers that are publicly traded


def _app_developer_map(archive: CrawlArchive,
                       packages: Sequence[str]) -> Dict[str, Tuple[str, str, Optional[str]]]:
    """package -> (developer_id, name, website), from crawled profiles."""
    result = {}
    for package in packages:
        profile = archive.first_profile(package)
        if profile is not None:
            result[package] = (profile.developer_id, profile.developer_name,
                               profile.developer_website)
    return result


def _group(label: str,
           packages: Sequence[str],
           archive: CrawlArchive,
           matcher: DeveloperMatcher,
           snapshot: CrunchbaseSnapshot,
           campaign_start_for: Mapping[str, int]) -> Tuple[FundingGroup, int]:
    developers = _app_developer_map(archive, packages)
    matched = 0
    funded = 0
    public = 0
    for package, (developer_id, name, website) in developers.items():
        match = matcher.match(name, website)
        if match is None:
            continue
        matched += 1
        if match.organization.is_public_company:
            public += 1
        start = campaign_start_for.get(package)
        if start is None:
            continue
        if snapshot.raised_after(match.organization.org_id, start):
            funded += 1
    group = FundingGroup(label=label, apps_considered=len(packages),
                         apps_matched=matched,
                         funded_after_campaign=funded)
    return group, public


def funding_comparison(
    archive: CrawlArchive,
    dataset: OfferDataset,
    snapshot: CrunchbaseSnapshot,
    vetted_packages: Sequence[str],
    unvetted_packages: Sequence[str],
    baseline_packages: Sequence[str],
    baseline_window_start: int,
) -> FundingComparison:
    """Table 7: funded-after-campaign, matched apps only."""
    matcher = DeveloperMatcher(snapshot)
    starts: Dict[str, int] = {}
    for package in list(vetted_packages) + list(unvetted_packages):
        starts[package] = dataset.campaign_window(package)[0]
    for package in baseline_packages:
        starts[package] = baseline_window_start
    vetted, vetted_public = _group("Vetted", vetted_packages, archive,
                                   matcher, snapshot, starts)
    unvetted, unvetted_public = _group("Unvetted", unvetted_packages, archive,
                                       matcher, snapshot, starts)
    baseline, _ = _group("Baseline", baseline_packages, archive,
                         matcher, snapshot, starts)
    return FundingComparison(
        baseline=baseline, vetted=vetted, unvetted=unvetted,
        vetted_vs_baseline=safe_two_by_two(
            vetted.funded_after_campaign,
            vetted.apps_matched - vetted.funded_after_campaign,
            baseline.funded_after_campaign,
            baseline.apps_matched - baseline.funded_after_campaign),
        unvetted_vs_baseline=safe_two_by_two(
            unvetted.funded_after_campaign,
            unvetted.apps_matched - unvetted.funded_after_campaign,
            baseline.funded_after_campaign,
            baseline.apps_matched - baseline.funded_after_campaign),
        public_company_apps=vetted_public + unvetted_public,
    )


@dataclass(frozen=True)
class FundedOfferBreakdown:
    """Table 8: offer mix of funded vetted apps."""

    funded_app_count: int
    no_activity_app_fraction: float     # fraction of apps using each type
    activity_app_fraction: float
    no_activity_average_payout: float
    activity_average_payout: float


def funded_offer_breakdown(dataset: OfferDataset,
                           funded_packages: Sequence[str]
                           ) -> FundedOfferBreakdown:
    labels = classify_dataset(dataset)
    funded = set(funded_packages)
    no_activity_apps = set()
    activity_apps = set()
    no_activity_payouts: List[float] = []
    activity_payouts: List[float] = []
    for record in dataset.offers():
        if record.package not in funded:
            continue
        classified = labels[(record.iip_name, record.offer_id)]
        if classified.is_activity:
            activity_apps.add(record.package)
            activity_payouts.append(record.payout_usd)
        else:
            no_activity_apps.add(record.package)
            no_activity_payouts.append(record.payout_usd)
    count = len(funded)
    return FundedOfferBreakdown(
        funded_app_count=count,
        no_activity_app_fraction=len(no_activity_apps) / count if count else 0.0,
        activity_app_fraction=len(activity_apps) / count if count else 0.0,
        no_activity_average_payout=(mean(no_activity_payouts)
                                    if no_activity_payouts else 0.0),
        activity_average_payout=(mean(activity_payouts)
                                 if activity_payouts else 0.0),
    )


def funded_packages(archive: CrawlArchive, dataset: OfferDataset,
                    snapshot: CrunchbaseSnapshot,
                    packages: Sequence[str]) -> List[str]:
    """The advertised apps whose matched developer raised after campaign."""
    matcher = DeveloperMatcher(snapshot)
    result = []
    for package in packages:
        profile = archive.first_profile(package)
        if profile is None:
            continue
        match = matcher.match(profile.developer_name, profile.developer_website)
        if match is None:
            continue
        start = dataset.campaign_window(package)[0]
        if snapshot.raised_after(match.organization.org_id, start):
            result.append(package)
    return result
