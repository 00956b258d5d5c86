"""Tables 3 and 4: characterising offers and advertised apps."""

from __future__ import annotations

import bisect
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.analysis.classify import ClassifiedOffer, OfferClassifier
from repro.analysis.stats import mean, median
from repro.analysis.streams import GroupFold
from repro.iip.offers import ActivityKind, OfferCategory
from repro.monitor.crawler import CrawlArchive
from repro.monitor.dataset import OfferDataset


@dataclass(frozen=True)
class OfferTypeRow:
    """One row of Table 3."""

    label: str
    offer_count: int
    fraction_of_all: float
    average_payout_usd: float


@dataclass(frozen=True)
class IipSummaryRow:
    """One row of Table 4."""

    iip_name: str
    iip_type: str                     # "Vetted" / "Unvetted"
    median_offer_payout_usd: float
    no_activity_fraction: float
    activity_fraction: float
    app_count: int
    developer_count: int
    country_count: int
    genre_count: int
    median_install_count: float
    median_app_age_days: float


def classify_dataset(dataset: OfferDataset
                     ) -> Dict[Tuple[str, str], ClassifiedOffer]:
    """(iip, offer_id) -> classification, for the whole corpus.

    Runs the regex rules once per *unique* description (the columnar
    frame's distinct set), then fans the labels out over the records —
    the corpus repeats descriptions heavily, and several tables call
    this per report.
    """
    classifier = OfferClassifier()
    by_description = {
        description: classifier.classify(description)
        for description in dataset.unique_descriptions()}
    return {
        (iip_name, offer_id): by_description[description]
        for chunk in dataset.frame_chunks()
        for iip_name, offer_id, description in chunk.rows(
            "iip_name", "offer_id", "description")
    }


def offer_type_table(dataset: OfferDataset) -> List[OfferTypeRow]:
    """Table 3: prevalence and average payout per offer type."""
    labels = classify_dataset(dataset)
    total = dataset.offer_count()
    if total == 0:
        return []
    buckets: Dict[str, List[float]] = defaultdict(list)
    for chunk in dataset.frame_chunks():
        for iip_name, offer_id, payout_usd in chunk.rows(
                "iip_name", "offer_id", "payout_usd"):
            classified = labels[(iip_name, offer_id)]
            if classified.category is OfferCategory.NO_ACTIVITY:
                buckets["No activity"].append(payout_usd)
            else:
                buckets["Activity"].append(payout_usd)
                kind = classified.activity_kind
                assert kind is not None
                buckets[f"Activity ({kind.value.capitalize()})"].append(
                    payout_usd)
    order = ("No activity", "Activity", "Activity (Usage)",
             "Activity (Registration)", "Activity (Purchase)")
    rows = []
    for label in order:
        payouts = buckets.get(label, [])
        rows.append(OfferTypeRow(
            label=label,
            offer_count=len(payouts),
            fraction_of_all=len(payouts) / total,
            average_payout_usd=mean(payouts) if payouts else 0.0,
        ))
    return rows


def iip_summary_table(dataset: OfferDataset,
                      archive: CrawlArchive,
                      vetted_names: Sequence[str]
                      ) -> List[IipSummaryRow]:
    """Table 4: per-IIP offers and Play metadata summary.

    Install counts and app ages come from the crawl archive: the paper
    measures age as campaign start minus Play release date, and install
    counts as the binned value at first observation.
    """
    labels = classify_dataset(dataset)
    groups = GroupFold("iip_name", "payout_usd", "offer_id",
                       "package").fold(dataset.frame_chunks()).groups
    rows = []
    for iip_name in sorted(groups):
        group = groups[iip_name]
        records = len(group["offer_id"])
        payouts = group["payout_usd"]
        activity = sum(
            1 for offer_id in group["offer_id"]
            if labels[(iip_name, offer_id)].is_activity)
        packages = sorted(set(group["package"]))
        developers, countries, genres = set(), set(), set()
        install_counts: List[float] = []
        ages: List[float] = []
        for package in packages:
            profile = archive.first_profile(package)
            if profile is None:
                continue
            developers.add(profile.developer_id)
            countries.add(profile.developer_country)
            genres.add(profile.genre)
            install_counts.append(float(profile.installs_floor))
            campaign_start, _ = dataset.campaign_window(package)
            ages.append(float(campaign_start - profile.release_day))
        rows.append(IipSummaryRow(
            iip_name=iip_name,
            iip_type="Vetted" if iip_name in vetted_names else "Unvetted",
            median_offer_payout_usd=median(payouts) if payouts else 0.0,
            no_activity_fraction=(1.0 - activity / records) if records else 0.0,
            activity_fraction=(activity / records) if records else 0.0,
            app_count=len(packages),
            developer_count=len(developers),
            country_count=len(countries),
            genre_count=len(genres),
            median_install_count=median(install_counts) if install_counts else 0.0,
            median_app_age_days=median(ages) if ages else 0.0,
        ))
    return rows


#: Figure 4's install-count bin edges (the paper's bins).
INSTALL_COUNT_EDGES = (1_000, 10_000, 100_000, 1_000_000, 10_000_000,
                       100_000_000, 1_000_000_000)


def install_count_histogram(values: Sequence[int]) -> List[Tuple[str, int]]:
    """Figure 4: histogram of install counts over the paper's bins."""
    labels = ["0-1k", "1k-10k", "10k-100k", "100k-1M", "1M-10M",
              "10M-100M", "100M-1000M", "1000M+"]
    counts = [0] * len(labels)
    for value in values:
        counts[bisect.bisect_right(INSTALL_COUNT_EDGES, value)] += 1
    return list(zip(labels, counts))
