"""Cost-recovery economics of incentivized campaigns (Section 4.3.2).

The paper establishes that activity-offer apps embed more ad SDKs and
can monetize the engagement they buy, but leaves open "whether these
monetization strategies are sufficient to directly recuperate the cost
of their incentivized install campaigns".  This module answers that
question under an explicit economic model:

* **cost per completion** = the user payout marked up by the IIP's
  margin plus the attribution fee;
* **ad revenue per completion** = minutes of in-app time the offer's
  tasks require x an impressions-per-minute rate (capped by how many ad
  SDKs the APK actually embeds) x eCPM;
* **IAP revenue** (purchase offers) = the purchase amount net of the
  store's 30% cut;
* **arbitrage commission** (arbitrage offers) = a commission margin on
  the in-app offers the user completes.

The model's parameters are the module constants below; the
attribution fee is :data:`repro.iip.mediator.FEE_PER_USER_USD`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping

from repro.analysis.classify import ClassifiedOffer
from repro.analysis.characterize import classify_dataset
from repro.iip.mediator import FEE_PER_USER_USD
from repro.iip.offers import ActivityKind, OfferCategory
from repro.monitor.dataset import OfferDataset, OfferRecord

#: In-app minutes a completion of each offer type buys.
SESSION_MINUTES = {
    "no_activity": 0.8,
    "registration": 4.0,
    "usage": 16.0,
    "purchase": 6.0,
    "arbitrage": 26.0,
}

#: Revenue-model parameters.
ECPM_USD = 8.0                     # revenue per 1000 ad impressions
IMPRESSIONS_PER_MINUTE = 1.2
MAX_EFFECTIVE_AD_LIBRARIES = 5
ADVERTISER_MARKUP = 0.5            # IIP margin over the user payout
STORE_IAP_CUT = 0.30
ARBITRAGE_COMMISSION = 0.35        # developer's share of in-app offers
TYPICAL_PURCHASE_USD = 4.99


@dataclass(frozen=True)
class OfferEconomics:
    """Per-completion economics of one offer."""

    iip_name: str
    offer_id: str
    package: str
    offer_kind: str
    cost_per_completion: float
    ad_revenue: float
    iap_revenue: float
    arbitrage_revenue: float

    @property
    def total_revenue(self) -> float:
        return self.ad_revenue + self.iap_revenue + self.arbitrage_revenue

    @property
    def recovery_ratio(self) -> float:
        if self.cost_per_completion == 0:
            return float("inf")
        return self.total_revenue / self.cost_per_completion

    @property
    def recoups_cost(self) -> bool:
        return self.recovery_ratio >= 1.0


@dataclass(frozen=True)
class CostRecoverySummary:
    offers_analysed: int
    recouping_offers: int
    median_recovery_ratio: float
    recovery_by_kind: Dict[str, float]   # kind -> median ratio

    @property
    def recouping_fraction(self) -> float:
        return (self.recouping_offers / self.offers_analysed
                if self.offers_analysed else 0.0)


def _offer_kind(classified: ClassifiedOffer) -> str:
    if classified.is_arbitrage:
        return "arbitrage"
    if classified.category is OfferCategory.NO_ACTIVITY:
        return "no_activity"
    assert classified.activity_kind is not None
    return classified.activity_kind.value


def offer_economics(record: OfferRecord, classified: ClassifiedOffer,
                    ad_libraries: int) -> OfferEconomics:
    """Per-completion cost and revenue of one observed offer."""
    kind = _offer_kind(classified)
    cost = (record.payout_usd * (1.0 + ADVERTISER_MARKUP)
            + FEE_PER_USER_USD)
    minutes = SESSION_MINUTES[kind]
    effective_libs = min(ad_libraries, MAX_EFFECTIVE_AD_LIBRARIES)
    ad_revenue = 0.0
    if effective_libs > 0:
        impressions = minutes * IMPRESSIONS_PER_MINUTE
        # More mediation partners, better fill: scale toward 1.0.
        fill = effective_libs / MAX_EFFECTIVE_AD_LIBRARIES
        ad_revenue = impressions * fill * ECPM_USD / 1000.0
    iap_revenue = 0.0
    if kind == "purchase":
        iap_revenue = TYPICAL_PURCHASE_USD * (1.0 - STORE_IAP_CUT)
    arbitrage_revenue = 0.0
    if kind == "arbitrage":
        arbitrage_revenue = record.payout_usd * ARBITRAGE_COMMISSION
    return OfferEconomics(
        iip_name=record.iip_name,
        offer_id=record.offer_id,
        package=record.package,
        offer_kind=kind,
        cost_per_completion=cost,
        ad_revenue=ad_revenue,
        iap_revenue=iap_revenue,
        arbitrage_revenue=arbitrage_revenue,
    )


def cost_recovery_analysis(dataset: OfferDataset,
                           apk_scan: Mapping[str, int]
                           ) -> List[OfferEconomics]:
    """Economics for every offer whose app's APK was scanned."""
    labels = classify_dataset(dataset)
    results = []
    for record in dataset.offers():
        if record.package not in apk_scan:
            continue
        classified = labels[(record.iip_name, record.offer_id)]
        results.append(offer_economics(record, classified,
                                       apk_scan[record.package]))
    return results


def summarize_cost_recovery(economics: List[OfferEconomics]
                            ) -> CostRecoverySummary:
    from repro.analysis.stats import median
    if not economics:
        return CostRecoverySummary(0, 0, 0.0, {})
    by_kind: Dict[str, List[float]] = {}
    for item in economics:
        by_kind.setdefault(item.offer_kind, []).append(item.recovery_ratio)
    return CostRecoverySummary(
        offers_analysed=len(economics),
        recouping_offers=sum(item.recoups_cost for item in economics),
        median_recovery_ratio=median([item.recovery_ratio
                                      for item in economics]),
        recovery_by_kind={kind: median(ratios)
                          for kind, ratios in sorted(by_kind.items())},
    )
