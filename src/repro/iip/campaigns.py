"""Campaign lifecycle: deposit -> live -> delivering -> exhausted."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import List, Optional

from repro.iip.offers import Offer


class CampaignState(enum.Enum):
    PENDING = "pending"        # created, not yet funded / vetted
    LIVE = "live"              # offer visible on the wall
    EXHAUSTED = "exhausted"    # all purchased completions delivered
    ENDED = "ended"            # end date passed before exhaustion


@dataclass
class Campaign:
    """One purchased incentivized-install campaign."""

    campaign_id: str
    developer_id: str
    offer: Offer
    installs_purchased: int
    advertiser_cost_per_install_usd: float
    state: CampaignState = CampaignState.PENDING
    delivered: int = 0
    launch_day: Optional[int] = None
    #: Download-fraud campaigns: the buyer wants chart rank, not users.
    #: Delivery comes from install farms rather than offer-wall workers,
    #: so the scenario drives these directly instead of pacing them
    #: through the normal wall-delivery loop.
    is_chart_boost: bool = False

    def __post_init__(self) -> None:
        if self.installs_purchased < 0:
            raise ValueError("cannot purchase a negative install count")
        if self.advertiser_cost_per_install_usd < self.offer.payout_usd:
            raise ValueError("advertiser cost below user payout")

    @property
    def remaining(self) -> int:
        return self.installs_purchased - self.delivered

    def launch(self, day: int) -> None:
        if self.state is not CampaignState.PENDING:
            raise ValueError(f"cannot launch campaign in state {self.state}")
        self.state = CampaignState.LIVE
        self.launch_day = day

    def record_delivery(self, count: int = 1) -> None:
        if self.state is not CampaignState.LIVE:
            raise ValueError(f"cannot deliver in state {self.state}")
        if count < 0:
            raise ValueError("negative delivery")
        if count > self.remaining:
            raise ValueError("delivering beyond purchased volume")
        self.delivered += count
        if self.remaining == 0:
            self.state = CampaignState.EXHAUSTED

    def expire(self, day: int) -> None:
        if self.state is CampaignState.LIVE and day > self.offer.end_day:
            self.state = CampaignState.ENDED

    def is_live_on(self, day: int) -> bool:
        return self.state is CampaignState.LIVE and self.offer.live_on(day)
