"""The IIP itself: vetting, campaign management, offer aggregation.

A platform aggregates developers' offers into its offer wall, pushes
them to integrated affiliate apps, and disburses payouts on certified
completions.  The vetted/unvetted split (paper Section 2.1) shows up
as concrete mechanics: vetted platforms demand documentation (tax id,
bank account) and a large upfront deposit; unvetted ones take anyone
with $20.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.checkpointed import Checkpointed
from repro.iip.accounting import Disbursement, MoneyLedger
from repro.iip.campaigns import Campaign, CampaignState
from repro.iip.mediator import FEE_PER_USER_USD, AttributionMediator
from repro.iip.offers import ActivityKind, Offer, OfferCategory, TaskSpec


class VettingError(Exception):
    """Developer failed the platform's review process."""


@dataclass(frozen=True)
class DeveloperCredentials:
    """What a developer can show during platform review."""

    developer_id: str
    tax_id: Optional[str] = None
    bank_account: Optional[str] = None
    company_website: Optional[str] = None

    @property
    def has_documentation(self) -> bool:
        return self.tax_id is not None and self.bank_account is not None


@dataclass(frozen=True)
class IIPConfig:
    """Operating parameters of one platform."""

    name: str
    home_url: str
    vetted: bool
    min_deposit_usd: float
    requires_documentation: bool
    affiliate_share: float       # affiliate's fraction of the margin
    advertiser_markup: float     # advertiser cost = payout * (1 + markup)
    delivery_hours_typical: float  # time to drain a 500-install campaign
    wall_host: str               # offer-wall HTTPS hostname

    def __post_init__(self) -> None:
        if self.min_deposit_usd < 0:
            raise ValueError("negative minimum deposit")
        if not 0 <= self.affiliate_share <= 1:
            raise ValueError("affiliate share out of range")
        if self.advertiser_markup < 0:
            raise ValueError("negative markup")


class IncentivizedInstallPlatform(Checkpointed):
    """One IIP instance operating against a shared money ledger."""

    #: The registered developers, the campaigns with their offers and
    #: the id counter: what a honey campaign leaves on its IIP.
    _STATE = ("_next_id", "_developers", "_campaigns")
    _developers: Dict[str, DeveloperCredentials]
    _campaigns: Dict[str, Campaign]

    def __init__(self, config: IIPConfig, ledger: MoneyLedger,
                 mediator: AttributionMediator) -> None:
        self.config = config
        self.ledger = ledger
        self.mediator = mediator
        self._developers = {}
        self._campaigns = {}
        self._next_id = 1
        self.affiliate_ids: List[str] = []

    @property
    def name(self) -> str:
        return self.config.name

    @property
    def vetted(self) -> bool:
        return self.config.vetted

    # -- developer review -----------------------------------------------------

    def register_developer(self, credentials: DeveloperCredentials) -> None:
        """Run the platform's review process.

        Vetted platforms reject developers who cannot present tax and
        banking documentation.  Registration is idempotent.
        """
        if self.config.requires_documentation and not credentials.has_documentation:
            raise VettingError(
                f"{self.name} requires tax id and bank account documentation")
        self._developers[credentials.developer_id] = credentials

    def is_registered(self, developer_id: str) -> bool:
        return developer_id in self._developers

    # -- affiliates ------------------------------------------------------------

    def attach_affiliate(self, affiliate_id: str) -> None:
        if affiliate_id not in self.affiliate_ids:
            self.affiliate_ids.append(affiliate_id)

    # -- campaigns ------------------------------------------------------------

    def create_campaign(
        self,
        developer_id: str,
        package: str,
        app_title: str,
        description: str,
        payout_usd: float,
        category: OfferCategory,
        activity_kind: Optional[ActivityKind],
        tasks: Tuple[TaskSpec, ...],
        installs: int,
        start_day: int,
        end_day: int,
        target_countries: Optional[Tuple[str, ...]] = None,
        is_arbitrage: bool = False,
        is_chart_boost: bool = False,
    ) -> Campaign:
        if developer_id not in self._developers:
            raise VettingError(
                f"developer {developer_id!r} is not registered with {self.name}")
        cost_per_install = payout_usd * (1.0 + self.config.advertiser_markup)
        budget = (cost_per_install + FEE_PER_USER_USD) * installs
        balance = self.ledger.balance(developer_id)
        required = max(budget, self.config.min_deposit_usd)
        if balance + 1e-9 < required:
            raise VettingError(
                f"{self.name} requires a deposit of at least "
                f"${required:.2f} (developer has ${balance:.2f})")
        offer_id = f"{self.name.lower()}-offer-{self._next_id}"
        campaign_id = f"{self.name.lower()}-campaign-{self._next_id}"
        self._next_id += 1
        offer = Offer(
            offer_id=offer_id,
            iip_name=self.name,
            package=package,
            app_title=app_title,
            play_store_url=f"https://play.google.example/store/apps/details?id={package}",
            description=description,
            payout_usd=payout_usd,
            category=category,
            activity_kind=activity_kind,
            tasks=tasks,
            start_day=start_day,
            end_day=end_day,
            target_countries=target_countries,
            is_arbitrage=is_arbitrage,
        )
        campaign = Campaign(
            campaign_id=campaign_id,
            developer_id=developer_id,
            offer=offer,
            installs_purchased=installs,
            advertiser_cost_per_install_usd=cost_per_install,
            is_chart_boost=is_chart_boost,
        )
        self._campaigns[campaign_id] = campaign
        return campaign

    def launch(self, campaign_id: str, day: int) -> None:
        self.campaign(campaign_id).launch(day)

    def campaign(self, campaign_id: str) -> Campaign:
        try:
            return self._campaigns[campaign_id]
        except KeyError:
            raise KeyError(f"unknown campaign {campaign_id!r}") from None

    def campaigns(self) -> List[Campaign]:
        return list(self._campaigns.values())

    def campaign_for_offer(self, offer_id: str) -> Optional[Campaign]:
        for campaign in self._campaigns.values():
            if campaign.offer.offer_id == offer_id:
                return campaign
        return None

    def live_offers(self, day: int, country: Optional[str] = None) -> List[Offer]:
        """The wall contents for a viewer in ``country`` on ``day``.

        The ``expire``/``is_live_on`` checks are inlined: the wall runs
        this for every viewer request, and once most campaigns have
        ended the loop should cost one state load per dead campaign, not
        two method calls.
        """
        live = CampaignState.LIVE
        offers = []
        for campaign in self._campaigns.values():
            if campaign.state is not live:
                continue
            offer = campaign.offer
            if day > offer.end_day:
                campaign.state = CampaignState.ENDED
                continue
            if day < offer.start_day:
                continue
            targeted = offer.target_countries
            if targeted is not None and country not in targeted:
                continue
            offers.append(offer)
        return sorted(offers, key=lambda offer: offer.offer_id)

    # -- completion and payout ---------------------------------------------------

    def complete_offer(self, offer_id: str, device_id: str, day: int,
                       affiliate_id: str, user_id: str,
                       tasks_completed: Tuple[str, ...]) -> Optional[Disbursement]:
        """Process a completion reported by an affiliate.

        Disburses only if the mediator certifies the (offer, device)
        conversion and the campaign still has budget.
        """
        campaign = self.campaign_for_offer(offer_id)
        if campaign is None or not campaign.is_live_on(day):
            return None
        if campaign.remaining <= 0:
            return None
        conversion = self.mediator.report_completion(
            offer_id, device_id, day, tasks_completed)
        if conversion is None:
            return None
        campaign.record_delivery(1)
        return self.ledger.disburse(
            offer_id=offer_id,
            day=day,
            developer=campaign.developer_id,
            iip=self.name,
            affiliate=affiliate_id,
            user=user_id,
            mediator=self.mediator.name,
            advertiser_cost_usd=campaign.advertiser_cost_per_install_usd,
            user_payout_usd=campaign.offer.payout_usd,
            affiliate_share=self.config.affiliate_share,
            mediator_fee_usd=FEE_PER_USER_USD,
        )
