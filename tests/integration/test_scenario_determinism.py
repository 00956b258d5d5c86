"""Adversarial scenarios keep every determinism guarantee.

Two pins: (1) two same-seed runs of the composed profile match byte for
byte — scenario state (review pools, boost plans, spike draws) must
replay identically, which is also what checkpoint resume relies on;
(2) switching a scenario *on* leaves the naive RNG prefix untouched, so
the frozen naive exports never move when adversarial code is merely
present.
"""

import pytest

from repro import World, WildScenario, WildScenarioConfig
from repro.core import WildMeasurement, WildMeasurementConfig
from repro.obs import Observability
from repro.obs.export import to_json
from repro.scenarios import parse_scenario

SCALE = 0.03
DAYS = 10
SEED = 11


def run_wild(profile: str):
    world = World(seed=SEED, obs=Observability())
    scenario = WildScenario(world, WildScenarioConfig(
        scale=SCALE, measurement_days=DAYS,
        scenario=parse_scenario(profile)))
    scenario.build()
    hook = world.detection_hook("wild")
    results = WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=DAYS), detection=hook).run()
    return world, scenario, results, hook


def fingerprint(world, scenario, results, hook):
    """Everything a scenario can influence, in comparable form."""
    reviews = [(r.reviewer_id, r.package, r.day, r.hour, r.rating)
               for r in world.store.reviews.all_reviews()]
    return (
        to_json(world.obs),
        [(o.offer_id, o.package, o.country, o.day)
         for o in results.observations],
        sorted(hook.finalize()),
        reviews,
        scenario.paid_reviewer_ids(),
        scenario.boost_plans(),
        sorted(hook.incentivized),
    )


class TestScenarioDeterminism:
    def test_composed_profile_replays(self):
        # The composed profile exercises every scenario subsystem at
        # once.
        profile = "evasive,fake-reviews,download-fraud"
        assert (fingerprint(*run_wild(profile))
                == fingerprint(*run_wild(profile)))


class TestNaivePrefixUnchanged:
    def offers(self, results):
        return [(o.offer_id, o.package, o.country, o.day)
                for o in results.observations]

    def test_store_scenarios_leave_offers_bit_identical(self):
        # Scenario randomness comes from dedicated streams keyed off
        # the "adversarial-scenario" seed; evasion and reviews change
        # detection events and store state, never the offer corpus.
        _, _, naive_results, _ = run_wild("naive")
        _, _, adv_results, _ = run_wild("evasive,fake-reviews")
        assert self.offers(adv_results) == self.offers(naive_results)

    def test_fraud_only_adds_offers(self):
        # Boost campaigns are real campaigns, so they surface as extra
        # offers — but every naive offer survives unchanged.
        _, _, naive_results, _ = run_wild("naive")
        _, _, fraud_results, _ = run_wild("download-fraud")
        naive_offers = self.offers(naive_results)
        fraud_offers = self.offers(fraud_results)
        assert set(naive_offers) < set(fraud_offers)
