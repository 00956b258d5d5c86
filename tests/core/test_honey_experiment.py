"""End-to-end tests of the Section-3 honey-app experiment."""

import pytest

from repro.core.honey_experiment import HoneyAppExperiment
from repro.core.reports import render_honey_report
from repro.honeyapp.app import HONEY_PACKAGE
from repro.obs import Observability
from repro.simulation.world import World


@pytest.fixture(scope="module")
def results():
    world = World(seed=2019)
    experiment = HoneyAppExperiment(world)
    return experiment.run(), world


class TestAcquisition:
    def test_total_installs_match_paper(self, results):
        experiment_results, _ = results
        assert experiment_results.total_installs() == 1679

    def test_per_iip_delivery(self, results):
        experiment_results, _ = results
        by_iip = {s.iip_name: s
                  for s in experiment_results.analysis.acquisition()}
        assert by_iip["Fyber"].installs == 626
        assert by_iip["ayeT-Studios"].installs == 550
        assert by_iip["RankApp"].installs == 503

    def test_rankapp_missing_telemetry(self, results):
        experiment_results, _ = results
        by_iip = {s.iip_name: s
                  for s in experiment_results.analysis.acquisition()}
        assert 0.35 < by_iip["RankApp"].missing_fraction < 0.55
        assert by_iip["Fyber"].missing_fraction < 0.05

    def test_delivery_speed_ordering(self, results):
        experiment_results, _ = results
        by_iip = {s.iip_name: s
                  for s in experiment_results.analysis.acquisition()}
        assert by_iip["Fyber"].delivery_hours < 3
        assert by_iip["ayeT-Studios"].delivery_hours < 3
        assert by_iip["RankApp"].delivery_hours > 24

    def test_install_count_manipulated_zero_to_thousand(self, results):
        experiment_results, _ = results
        assert experiment_results.displayed_installs_before == 0
        assert experiment_results.displayed_installs_after >= 1000

    def test_mean_cost_is_cents_not_dollars(self, results):
        # The paper: ~$0.06 incentivized vs $1.22 non-incentivized.
        experiment_results, _ = results
        assert 0.01 < experiment_results.mean_cost_per_install < 0.30


class TestEngagement:
    def test_click_rates_match_paper_bands(self, results):
        experiment_results, _ = results
        by_iip = {s.iip_name: s
                  for s in experiment_results.analysis.engagement()}
        assert 0.35 < by_iip["Fyber"].click_rate < 0.53
        assert 0.35 < by_iip["ayeT-Studios"].click_rate < 0.53
        assert by_iip["RankApp"].click_rate < 0.12

    def test_engagement_fades_after_day_one(self, results):
        experiment_results, _ = results
        for summary in experiment_results.analysis.engagement():
            assert summary.clicked_day_after <= 12
            assert summary.clicked_day_after < summary.clicked_record


class TestAutomationSignals:
    def test_some_emulators_and_cloud_devices(self, results):
        experiment_results, _ = results
        automation = experiment_results.analysis.automation()
        assert 1 <= automation.emulator_installs <= 12
        assert 2 <= automation.cloud_asn_devices <= 20

    def test_device_farm_detected(self, results):
        experiment_results, _ = results
        automation = experiment_results.analysis.automation()
        assert len(automation.farms) == 1
        farm = automation.farms[0]
        assert farm.installs == 20
        assert farm.rooted >= 14
        assert farm.rooted_sharing_ssid == farm.rooted


class TestCoInstalls:
    def test_affiliate_keyword_prevalence_ordering(self, results):
        experiment_results, _ = results
        co = experiment_results.analysis.co_installs()
        rates = co.money_keyword_fraction_by_iip
        assert rates["RankApp"] > rates["ayeT-Studios"] > rates["Fyber"]
        assert rates["RankApp"] > 0.9

    def test_flagship_affiliates(self, results):
        experiment_results, _ = results
        co = experiment_results.analysis.co_installs()
        assert co.top_affiliate_by_iip["RankApp"][0] == "eu.gcashapp"
        assert co.top_affiliate_by_iip["ayeT-Studios"][0] == "com.ayet.cashpirate"

    def test_co_install_corpus_scale(self, results):
        experiment_results, _ = results
        co = experiment_results.analysis.co_installs()
        assert co.total_unique_packages > 5000


class TestSideEffects:
    def test_workers_got_paid(self, results):
        _, world = results
        worker_wallets = [
            entry for entry in world.money.entries()
            if entry.destination.startswith("worker-")]
        assert len(worker_wallets) > 1000

    def test_mediator_tracked_conversions(self, results):
        _, world = results
        assert world.mediator.total_conversions > 1000

    def test_telemetry_arrived_over_https_only(self, results):
        _, world = results
        assert world.telemetry.events()
        # Every stored payload carries only sanitised network data.
        for stored in world.telemetry.events()[:200]:
            assert stored.payload.ip_slash24.endswith("/24")
            assert len(stored.payload.ssid_hash) == 16

    def test_report_renders(self, results):
        experiment_results, _ = results
        text = render_honey_report(experiment_results)
        assert "1679" in text
        assert "device farm" in text
        assert "eu.gcashapp" in text


class TestZeroDeliveredCampaigns:
    """Regression: a purchase small enough to round to zero delivered
    installs must not divide by zero in the mix or the signal rates."""

    def test_mix_rejects_zero_delivered(self):
        from repro.core.honey_experiment import _mix_for
        with pytest.raises(ValueError):
            _mix_for("Fyber", 0)

    def test_zero_installs_run_completes(self):
        world = World(seed=2019)
        experiment = HoneyAppExperiment(world, installs_per_iip=0)
        experiment_results = experiment.run()
        assert experiment_results.total_installs() == 0
        for record in experiment_results.campaigns:
            assert record.delivered == 0
            assert record.completions_paid == 0
            assert record.total_cost_usd == 0.0
        # No population was built, so no telemetry and no enforcement.
        assert world.telemetry.events() == []
        assert experiment_results.enforcement_actions == 0


class TestSmallPurchases:
    """A purchase too small to hold the paper's absolute Section-3
    counts (emulators, the device farm, day-after clicks) has no valid
    user mix; it is refused up front, naming the smallest one."""

    @pytest.mark.parametrize("installs", [1, 5, 21])
    def test_unsupported_purchase_refused_at_construction(self, installs):
        world = World(seed=2019)
        with pytest.raises(ValueError,
                           match="smallest supported purchase is 22"):
            HoneyAppExperiment(world, installs_per_iip=installs)
        # Refused before the experiment touched the world.
        assert HONEY_PACKAGE not in world.store.catalog

    def test_smallest_supported_purchase_runs(self):
        world = World(seed=2019)
        results = HoneyAppExperiment(world, installs_per_iip=22).run()
        assert all(record.delivered > 0 for record in results.campaigns)


class TestTlsResumption:
    """Repeat telemetry uploads resume their campaign's TLS session
    instead of paying the handshake round trips again."""

    def test_resumption_reduces_fabric_traffic(self):
        world = World(seed=11, obs=Observability())
        HoneyAppExperiment(world, installs_per_iip=120).run()
        total = world.obs.metrics.counter_total
        assert (total("net.client.tls_resumptions")
                > total("net.client.tls_handshakes") > 0)
