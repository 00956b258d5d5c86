"""Play Store enforcement against install-count manipulation.

Google documents that it fights "fraud and spam installs" by filtering
them from install counts.  The paper's longitudinal data shows this
enforcement is weak in practice: *no* decreases for baseline or
vetted-IIP apps, and decreases for only ~2% of unvetted-IIP apps (e.g.
an app dropping from the 1,000+ bin back to 500+).

The engine below reviews finished campaigns using only signals the
store could plausibly observe (how bursty delivery was, what fraction
of installing devices ever opened the app, emulator prevalence) and
removes a campaign's installs when its fraud score crosses a detection
draw.  The default coefficients are calibrated so vetted-style
campaigns (high open rates, organic-looking pacing) are essentially
never caught while the crudest no-activity campaigns occasionally are.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.checkpointed import Checkpointed
from repro.playstore.ledger import InstallLedger


@dataclass(frozen=True)
class CampaignSignals:
    """Store-observable features of one delivered campaign."""

    campaign_id: str
    package: str
    installs_delivered: int
    open_rate: float          # fraction of installs that ever opened the app
    emulator_rate: float      # fraction of installs from emulator-like devices
    delivery_hours: float     # time to deliver the full campaign
    end_day: int

    def __post_init__(self) -> None:
        for name, rate in (("open_rate", self.open_rate),
                           ("emulator_rate", self.emulator_rate)):
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} out of [0, 1]: {rate}")


@dataclass(frozen=True)
class EnforcementAction:
    """One enforcement decision (removal of a campaign's installs)."""

    campaign_id: str
    package: str
    day: int
    installs_removed: int


class EnforcementEngine(Checkpointed):
    """Weak retroactive filtering of incentivized installs."""

    #: Weight on the never-opened fraction (squared: only extreme
    #: non-engagement stands out from organic churn).
    NEVER_OPENED_WEIGHT = 0.22
    #: Weight on emulator prevalence.
    EMULATOR_WEIGHT = 0.20
    #: Extra score for campaigns delivered implausibly fast (<2h).
    BURST_BONUS = 0.005

    _STATE = ("_reviewed", "actions")
    actions: List[EnforcementAction]

    def __init__(self, ledger: InstallLedger) -> None:
        self._ledger = ledger
        self.actions = []
        self._reviewed: set = set()

    def detection_probability(self, signals: CampaignSignals) -> float:
        never_opened = 1.0 - signals.open_rate
        score = (self.NEVER_OPENED_WEIGHT * never_opened ** 2
                 + self.EMULATOR_WEIGHT * signals.emulator_rate ** 2)
        if signals.delivery_hours < 2.0:
            score += self.BURST_BONUS
        return min(1.0, score)

    def review(self, signals: CampaignSignals, day: int,
               rng: random.Random) -> Optional[EnforcementAction]:
        """Review one campaign once; maybe remove its installs."""
        if signals.campaign_id in self._reviewed:
            return None
        self._reviewed.add(signals.campaign_id)
        if rng.random() >= self.detection_probability(signals):
            return None
        removed = self._ledger.campaign_installs(signals.campaign_id)
        if removed == 0:
            return None
        self._ledger.remove_installs(signals.package, day, removed)
        action = EnforcementAction(
            campaign_id=signals.campaign_id,
            package=signals.package,
            day=day,
            installs_removed=removed,
        )
        self.actions.append(action)
        return action

    def actions_for(self, package: str) -> List[EnforcementAction]:
        return [action for action in self.actions if action.package == package]
