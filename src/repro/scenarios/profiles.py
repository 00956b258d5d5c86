"""Scenario profiles: which adversarial behaviours are switched on.

A :class:`ScenarioPack` is a frozen value — it rides inside
:class:`~repro.simulation.scenarios.WildScenarioConfig`, so a profile
chosen on the CLI reaches the world without any extra plumbing.

Profiles compose: ``--scenario evasive,fake-reviews`` runs both.  The
``naive`` token is the explicit no-op (the default) and cannot be
combined with an adversarial profile — asking for a population that
both does and does not fight back is a spelling mistake, not a mix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

#: CLI spellings, in display order.
SCENARIO_CHOICES = ("naive", "evasive", "fake-reviews", "download-fraud")


@dataclass(frozen=True)
class EvasionConfig:
    """How evasive campaigns scatter their install footprint.

    Instead of draining into one tight per-``(package, day)`` anchor
    burst, conversions split across ``split_batches`` sub-bursts
    scattered over ``spread_hours``, a ``cover_probability`` slice of
    workers leaves genuine-looking engagement (above the detector's
    180 s line), and extra organic installs are mixed in as cover.
    """

    spread_hours: float = 16.0          # sub-bursts scatter over this span
    split_batches: int = 3              # sub-bursts per (package, day)
    batch_spread_hours: float = 1.5     # width of one sub-burst
    cover_probability: float = 0.55     # workers faking real engagement
    cover_engagement_range: Tuple[float, float] = (240.0, 720.0)
    organic_cover_multiplier: int = 3   # extra organic installs per app
    honey_jitter_hours: float = 6.0     # post-hoc jitter for honey events


@dataclass(frozen=True)
class FakeReviewConfig:
    """Campaign-driven review bursts plus the organic background."""

    campaign_probability: float = 0.35   # advertised apps buying reviews
    reviews_per_app_range: Tuple[int, int] = (24, 120)  # log-uniform
    burst_days_range: Tuple[int, int] = (2, 5)
    paid_pool_reuse: float = 0.8         # professional reviewer accounts
    throwaway_probability: float = 0.25  # one-off paid accounts
    paid_five_star_rate: float = 0.9
    organic_reviews_per_day: float = 0.5  # per app, popularity-scaled
    organic_reuse: float = 0.05          # enthusiasts reviewing many apps


@dataclass(frozen=True)
class DownloadFraudConfig:
    """Install spikes sized to climb the top-free chart."""

    fraud_app_fraction: float = 0.08     # of advertised apps (min 2)
    #: Only unknown apps buy chart rank: an app with real traction has
    #: organic engagement deep enough to drown the farm's footprint
    #: (and no reason to pay for a spike in the first place).
    max_initial_installs: int = 100_000
    spike_days_range: Tuple[int, int] = (3, 4)
    earliest_start_day: int = 7          # after day-0 batches leave the window
    chart_margin: float = 1.25           # overshoot above the entry score
    daily_floor: int = 400
    daily_cap: int = 250_000
    enforcement_lag_days: int = 2        # review lag after the spike ends
    observed_open_rate: float = 0.03     # what the store sees of the farm
    observed_emulator_rate: float = 0.8
    farm_open_rate: float = 0.05         # farm devices that open at all


@dataclass(frozen=True)
class ScenarioPack:
    """The composable profile switchboard threaded through a run."""

    evasive: bool = False
    fake_reviews: bool = False
    download_fraud: bool = False
    evasion: EvasionConfig = field(default_factory=EvasionConfig)
    fake_review: FakeReviewConfig = field(default_factory=FakeReviewConfig)
    fraud: DownloadFraudConfig = field(default_factory=DownloadFraudConfig)

    @property
    def adversarial(self) -> bool:
        return self.evasive or self.fake_reviews or self.download_fraud

    @property
    def name(self) -> str:
        """Display name: ``naive`` or the ``+``-joined active profiles."""
        parts = []
        if self.evasive:
            parts.append("evasive")
        if self.fake_reviews:
            parts.append("fake-reviews")
        if self.download_fraud:
            parts.append("download-fraud")
        return "+".join(parts) if parts else "naive"


#: The default: nobody fights back.
NAIVE = ScenarioPack()


def parse_scenario(text: str) -> ScenarioPack:
    """Parse a ``--scenario`` value: comma-separated profile names.

    >>> parse_scenario("evasive,download-fraud").name
    'evasive+download-fraud'
    """
    tokens = [token.strip() for token in text.split(",") if token.strip()]
    if not tokens:
        raise ValueError("empty --scenario value")
    flags = {"evasive": False, "fake_reviews": False, "download_fraud": False}
    naive = False
    for token in tokens:
        if token == "naive":
            naive = True
        elif token == "evasive":
            flags["evasive"] = True
        elif token == "fake-reviews":
            flags["fake_reviews"] = True
        elif token == "download-fraud":
            flags["download_fraud"] = True
        else:
            choices = ", ".join(SCENARIO_CHOICES)
            raise ValueError(
                f"unknown scenario {token!r} (choices: {choices})")
    if naive and any(flags.values()):
        raise ValueError("'naive' cannot be combined with other scenarios")
    return ScenarioPack(**flags)
