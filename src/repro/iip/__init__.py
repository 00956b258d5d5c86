"""Incentivized install platforms (IIPs).

Models the supply side of the ecosystem in paper Section 2: vetted and
unvetted platforms, developer vetting, offers and their in-app task
requirements, campaign lifecycle and money flow, offer-wall HTTP
servers, and third-party attribution mediators.
"""

from repro.iip.accounting import LedgerEntry, MoneyLedger
from repro.iip.campaigns import Campaign, CampaignState
from repro.iip.mediator import AttributionMediator, Conversion
from repro.iip.offers import (
    ActivityKind,
    Offer,
    OfferCategory,
    OfferDescriptionGenerator,
    TaskSpec,
)
from repro.iip.platform import DeveloperCredentials, IIPConfig, IncentivizedInstallPlatform
from repro.iip.registry import IIP_CONFIGS, build_platforms

__all__ = [
    "ActivityKind",
    "AttributionMediator",
    "Campaign",
    "CampaignState",
    "Conversion",
    "DeveloperCredentials",
    "IIPConfig",
    "IIP_CONFIGS",
    "IncentivizedInstallPlatform",
    "LedgerEntry",
    "MoneyLedger",
    "Offer",
    "OfferCategory",
    "OfferDescriptionGenerator",
    "TaskSpec",
    "build_platforms",
]
