"""Responsible-disclosure workflow.

The paper manually contacted the developers of the 136 advertised apps
with 5M+ installs, using the contact email on their Play profiles, and
received three responses -- all from developers unaware their apps were
in incentivized campaigns, who believed third-party marketing
organisations they had hired were defrauding them.  Google received a
disclosure too and sent only an acknowledgement.

This module codifies that workflow over the measured data: target
selection from crawled profiles, notice drafting, and a response model
calibrated to the observed response behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.monitor.crawler import CrawlArchive
from repro.monitor.dataset import OfferDataset

#: The paper's popularity bar for manual outreach.
MIN_INSTALLS = 5_000_000
#: Observed response behaviour: 3 of 136 contacted developers replied,
#: every respondent was unaware and blamed contracted marketers.
RESPONSE_RATE = 3 / 136
UNAWARE_RATE = 1.0
BLAMES_MARKETER_RATE = 1.0


@dataclass(frozen=True)
class DisclosureNotice:
    """One notification email to one developer about one app."""

    package: str
    developer_id: str
    developer_email: Optional[str]
    installs_floor: int
    iips: Tuple[str, ...]
    sent_day: int

    @property
    def deliverable(self) -> bool:
        return self.developer_email is not None


@dataclass(frozen=True)
class DeveloperResponse:
    """A developer's reply to a disclosure notice."""

    package: str
    developer_id: str
    day: int
    was_aware: bool
    blames_marketing_org: bool


class DisclosureCampaign:
    """Select popular advertised apps and notify their developers."""

    def __init__(self, archive: CrawlArchive, dataset: OfferDataset) -> None:
        self._archive = archive
        self._dataset = dataset
        self.notices: List[DisclosureNotice] = []
        self.responses: List[DeveloperResponse] = []
        self.google_acknowledged = False

    # -- target selection -------------------------------------------------------

    def select_targets(self) -> List[DisclosureNotice]:
        """Advertised apps whose crawled profile shows >= min installs."""
        targets = []
        by_package = self._dataset.offers_by_package()
        for package in self._dataset.unique_packages():
            profile = self._archive.last_profile(package)
            if profile is None or profile.installs_floor < MIN_INSTALLS:
                continue
            iips = tuple(sorted({record.iip_name
                                 for record in by_package[package]}))
            email = f"contact@{profile.developer_id}.example"
            if profile.developer_website is None:
                # Developers without a web presence often list no
                # reachable contact either.
                email = None
            targets.append(DisclosureNotice(
                package=package,
                developer_id=profile.developer_id,
                developer_email=email,
                installs_floor=profile.installs_floor,
                iips=iips,
                sent_day=-1,
            ))
        return targets

    # -- outreach -------------------------------------------------------

    def notify_developers(self, day: int, rng: random.Random,
                          response_rate: float = RESPONSE_RATE) -> int:
        """Send every deliverable notice; simulate responses.

        Returns the number of notices sent.  Responses arrive within two
        weeks; every responder (as in the paper) turns out to be unaware
        of the campaign and suspects a contracted marketing organisation.
        """
        sent = 0
        for target in self.select_targets():
            notice = DisclosureNotice(
                package=target.package,
                developer_id=target.developer_id,
                developer_email=target.developer_email,
                installs_floor=target.installs_floor,
                iips=target.iips,
                sent_day=day,
            )
            self.notices.append(notice)
            if not notice.deliverable:
                continue
            sent += 1
            if rng.random() < response_rate:
                self.responses.append(DeveloperResponse(
                    package=notice.package,
                    developer_id=notice.developer_id,
                    day=day + rng.randrange(1, 15),
                    was_aware=rng.random() >= UNAWARE_RATE,
                    blames_marketing_org=rng.random() < BLAMES_MARKETER_RATE,
                ))
        return sent

    def notify_google(self) -> None:
        """Disclose to the store operator; only an acknowledgement comes
        back (the paper: 'Other than the receipt of acknowledgement, we
        have so far not received any other feedback from Google')."""
        self.google_acknowledged = True

    # -- reporting -------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        unaware = [r for r in self.responses if not r.was_aware]
        return {
            "apps_selected": len(self.notices),
            "notices_sent": sum(1 for n in self.notices if n.deliverable),
            "responses": len(self.responses),
            "responders_unaware": len(unaware),
            "responders_blaming_marketers": sum(
                1 for r in self.responses if r.blames_marketing_org),
            "google_acknowledged": self.google_acknowledged,
        }

    def render(self) -> str:
        summary = self.summary()
        lines = [
            "Responsible disclosure (Section 5.1)",
            f"popular advertised apps (>= {MIN_INSTALLS:,} installs): "
            f"{summary['apps_selected']}",
            f"notices sent: {summary['notices_sent']}",
            f"responses: {summary['responses']} "
            f"(unaware: {summary['responders_unaware']}, "
            f"blaming contracted marketers: "
            f"{summary['responders_blaming_marketers']})",
            f"Google: {'acknowledgement only' if self.google_acknowledged else 'not contacted'}",
        ]
        return "\n".join(lines)
