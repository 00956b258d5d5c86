"""Adversarial scenario profiles for both measurement pipelines.

The naive populations the reproduction ships with do not fight back:
campaign installs land in tight lockstep bursts, nobody posts fake
reviews, and nobody buys installs just to climb a chart.  This package
adds the three adversarial workloads the ROADMAP names — evasion,
fake-review campaigns, and chart-rank download fraud — behind a single
composable ``--scenario`` profile (:class:`ScenarioPack`), plus the
store-side detectors that hunt each one.

Everything here is deterministic: every scenario draw comes from a
stream derived off the world's ``adversarial-scenario`` seed with
:func:`repro.parallel.hashing.derive_rng`, keyed by day or entity —
never from the shared ``wild-scenario`` stream — so switching a profile
on cannot perturb the naive exports, and same-seed runs stay
byte-identical under every chaos profile.
"""

from repro.scenarios.downloadfraud import (
    BoostPlan,
    DownloadFraudDetector,
    rank_trajectory,
    render_fraud_report,
)
from repro.scenarios.evasion import EvasiveLiveDetection, evade_event
from repro.scenarios.fakereviews import (
    ReviewCampaignPlan,
    ReviewSpamDetector,
    render_review_report,
)
from repro.scenarios.profiles import (
    NAIVE,
    SCENARIO_CHOICES,
    ScenarioPack,
    parse_scenario,
)

__all__ = [
    "BoostPlan",
    "DownloadFraudDetector",
    "EvasiveLiveDetection",
    "NAIVE",
    "ReviewCampaignPlan",
    "ReviewSpamDetector",
    "SCENARIO_CHOICES",
    "ScenarioPack",
    "evade_event",
    "parse_scenario",
    "rank_trajectory",
    "render_fraud_report",
    "render_review_report",
]
