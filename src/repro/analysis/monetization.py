"""Figure 6 and the arbitrage analysis (Section 4.3.2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from repro.analysis.characterize import classify_dataset
from repro.iip.offers import OfferCategory
from repro.monitor.dataset import OfferDataset


@dataclass(frozen=True)
class AdLibraryCdf:
    """Empirical distribution of unique ad-library counts for one group."""

    label: str
    app_count: int
    counts: Tuple[int, ...]

    def cdf_at(self, threshold: int) -> float:
        """P(count <= threshold)."""
        if not self.counts:
            return 0.0
        return sum(1 for c in self.counts if c <= threshold) / len(self.counts)

    def fraction_with_at_least(self, threshold: int) -> float:
        """The paper's headline stat: fraction with >= ``threshold`` libs."""
        if not self.counts:
            return 0.0
        return sum(1 for c in self.counts if c >= threshold) / len(self.counts)

    def series(self, max_count: int = 30) -> List[Tuple[int, float]]:
        """(x, CDF(x)) points for plotting."""
        return [(x, self.cdf_at(x)) for x in range(max_count + 1)]


def ad_library_distribution(scan: Mapping[str, int],
                            groups: Mapping[str, Sequence[str]]
                            ) -> List[AdLibraryCdf]:
    """Group the per-APK ad-library counts (Figure 6a / 6b)."""
    distributions = []
    for label, packages in groups.items():
        counts = tuple(sorted(scan[p] for p in packages if p in scan))
        distributions.append(AdLibraryCdf(
            label=label, app_count=len(counts), counts=counts))
    return distributions


def split_packages_by_offer_type(dataset: OfferDataset
                                 ) -> Dict[str, List[str]]:
    """Apps that (ever) used activity offers vs only no-activity offers."""
    labels = classify_dataset(dataset)
    activity_apps = set()
    all_apps = set()
    for record in dataset.offers():
        all_apps.add(record.package)
        if labels[(record.iip_name, record.offer_id)].is_activity:
            activity_apps.add(record.package)
    return {
        "Activity offers": sorted(activity_apps),
        "No activity offers": sorted(all_apps - activity_apps),
    }


@dataclass(frozen=True)
class ArbitrageStats:
    """Section 4.3.2: prevalence of arbitrage-style offers."""

    total_apps: int
    arbitrage_apps: int
    vetted_apps: int
    vetted_arbitrage: int
    unvetted_apps: int
    unvetted_arbitrage: int

    @property
    def overall_fraction(self) -> float:
        return self.arbitrage_apps / self.total_apps if self.total_apps else 0.0

    @property
    def vetted_fraction(self) -> float:
        return self.vetted_arbitrage / self.vetted_apps if self.vetted_apps else 0.0

    @property
    def unvetted_fraction(self) -> float:
        return (self.unvetted_arbitrage / self.unvetted_apps
                if self.unvetted_apps else 0.0)


def arbitrage_stats(dataset: OfferDataset, vetted_names: Sequence[str]
                    ) -> ArbitrageStats:
    labels = classify_dataset(dataset)
    vetted_set = set(vetted_names)
    all_apps = set()
    arbitrage_apps = set()
    vetted_apps = set()
    vetted_arbitrage = set()
    unvetted_apps = set()
    unvetted_arbitrage = set()
    for record in dataset.offers():
        classified = labels[(record.iip_name, record.offer_id)]
        all_apps.add(record.package)
        is_vetted = record.iip_name in vetted_set
        (vetted_apps if is_vetted else unvetted_apps).add(record.package)
        if classified.is_arbitrage:
            arbitrage_apps.add(record.package)
            (vetted_arbitrage if is_vetted else unvetted_arbitrage).add(
                record.package)
    return ArbitrageStats(
        total_apps=len(all_apps),
        arbitrage_apps=len(arbitrage_apps),
        vetted_apps=len(vetted_apps),
        vetted_arbitrage=len(vetted_arbitrage),
        unvetted_apps=len(unvetted_apps),
        unvetted_arbitrage=len(unvetted_arbitrage),
    )
