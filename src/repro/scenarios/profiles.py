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

from dataclasses import dataclass

#: CLI spellings, in display order.
SCENARIO_CHOICES = ("naive", "evasive", "fake-reviews", "download-fraud")


@dataclass(frozen=True)
class ScenarioPack:
    """The composable profile switchboard threaded through a run."""

    evasive: bool = False
    fake_reviews: bool = False
    download_fraud: bool = False

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
