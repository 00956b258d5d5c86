"""Adversarial scenarios leave the naive RNG prefix untouched.

Switching a scenario *on* must not move the naive offer corpus, so the
frozen naive exports never move when adversarial code is merely
present.  That the composed profile replays byte for byte at the same
seed is a cell of ``test_determinism_matrix.py``.
"""

from repro import World, WildScenario, WildScenarioConfig
from repro.core import WildMeasurement, WildMeasurementConfig
from repro.obs import Observability
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
    return WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=DAYS), detection=hook).run()


class TestNaivePrefixUnchanged:
    def offers(self, results):
        return [(o.offer_id, o.package, o.country, o.day)
                for o in results.observations]

    def test_store_scenarios_leave_offers_bit_identical(self):
        # Scenario randomness comes from dedicated streams keyed off
        # the "adversarial-scenario" seed; evasion and reviews change
        # detection events and store state, never the offer corpus.
        naive_results = run_wild("naive")
        adv_results = run_wild("evasive,fake-reviews")
        assert self.offers(adv_results) == self.offers(naive_results)

    def test_fraud_only_adds_offers(self):
        # Boost campaigns are real campaigns, so they surface as extra
        # offers — but every naive offer survives unchanged.
        naive_results = run_wild("naive")
        fraud_results = run_wild("download-fraud")
        naive_offers = self.offers(naive_results)
        fraud_offers = self.offers(fraud_results)
        assert set(naive_offers) < set(fraud_offers)

    def test_composed_profile_keeps_the_tiers_disjoint(self):
        # The scenario never reuses an app across tiers, and a chart
        # boost runs on the app's own first IIP, so no profile makes an
        # app both vetted- and unvetted-advertised.
        results = run_wild("evasive,fake-reviews,download-fraud")
        assert set(results.vetted_packages()).isdisjoint(
            results.unvetted_packages())
