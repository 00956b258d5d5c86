"""Download-fraud scenario: chart climb, detection, enforcement lag."""

from repro.core.wild_measurement import WildMeasurement, WildMeasurementConfig
from repro.scenarios import (
    DownloadFraudDetector,
    parse_scenario,
    rank_trajectory,
    render_fraud_report,
)
from repro.simulation.scenarios import (
    FRAUD_ENFORCEMENT_LAG_DAYS,
    FRAUD_MAX_INITIAL_INSTALLS,
    WildScenario,
    WildScenarioConfig,
)
from repro.simulation.world import World

DAYS = 14


def run_fraud(seed=7, scale=0.03, profile="download-fraud"):
    pack = parse_scenario(profile)
    world = World(seed=seed)
    scenario = WildScenario(world, WildScenarioConfig(
        scale=scale, measurement_days=DAYS, scenario=pack))
    scenario.build()
    WildMeasurement(world, scenario, WildMeasurementConfig(
        measurement_days=DAYS)).run()
    return world, scenario


class TestScenario:
    def test_boost_plans_target_small_apps(self):
        world, scenario = run_fraud()
        plans = scenario.boost_plans()
        assert plans, "the scenario must pick fraud apps"
        by_package = {app.package: app for app in scenario.advertised}
        for plan in plans:
            assert (by_package[plan.package].initial_installs
                    <= FRAUD_MAX_INITIAL_INSTALLS)
            assert plan.start_day >= 1
            assert plan.end_day < DAYS

    def test_boosted_apps_climb_the_chart(self):
        world, scenario = run_fraud()
        for plan in scenario.boost_plans():
            trajectory = rank_trajectory(world.store, plan.package,
                                         plan.start_day, plan.end_day)
            ranks = [rank for _, rank in trajectory if rank is not None]
            assert ranks, f"{plan.package} never charted"
            assert min(ranks) <= 20

    def test_detector_separates_fraud_from_campaigns(self):
        # Naive incentivized campaigns spike installs too — the
        # engagement-deficit feature is what keeps them unflagged.
        world, scenario = run_fraud()
        packages = (scenario.advertised_packages()
                    + scenario.baseline_packages())
        report = DownloadFraudDetector().evaluate(
            world.store, packages, scenario.fraud_packages(), DAYS - 1)
        assert report.precision == 1.0
        assert report.recall == 1.0

    def test_enforcement_reacts_on_the_lag(self):
        # Takedowns are stochastic per campaign (weak retroactive
        # enforcement, as the paper observes), but at this seed at
        # least one fires — and any takedown must land at least
        # FRAUD_ENFORCEMENT_LAG_DAYS after the spike ends and remove the
        # campaign's installs from the ledger.
        world, scenario = run_fraud()
        boost_ids = {plan.campaign_id for plan in scenario.boost_plans()}
        by_package = {plan.package: plan for plan in scenario.boost_plans()}
        takedowns = 0
        for plan in scenario.boost_plans():
            for action in world.store.enforcement.actions_for(plan.package):
                if action.campaign_id not in boost_ids:
                    continue
                takedowns += 1
                assert action.day >= (by_package[plan.package].end_day
                                      + FRAUD_ENFORCEMENT_LAG_DAYS)
                assert action.installs_removed > 0
        assert takedowns >= 1

    def test_report_renders_every_plan(self):
        world, scenario = run_fraud()
        packages = (scenario.advertised_packages()
                    + scenario.baseline_packages())
        report = DownloadFraudDetector().evaluate(
            world.store, packages, scenario.fraud_packages(), DAYS - 1)
        text = render_fraud_report(world.store, scenario.boost_plans(),
                                   report, DAYS - 1)
        for plan in scenario.boost_plans():
            assert plan.package in text
        assert "rank path" in text

    def test_naive_run_has_no_boosts(self):
        world = World(seed=7)
        scenario = WildScenario(world, WildScenarioConfig(
            scale=0.03, measurement_days=8))
        scenario.build()
        WildMeasurement(world, scenario, WildMeasurementConfig(
            measurement_days=8)).run()
        assert scenario.boost_plans() == []
        assert scenario.fraud_packages() == []
