"""Platform tests: vetting, campaigns, completion, registry, wall server."""

import random

import pytest

from repro.iip.accounting import MoneyLedger
from repro.iip.campaigns import Campaign, CampaignState
from repro.iip.mediator import AttributionMediator
from repro.iip.offers import ActivityKind, OfferCategory, tasks_for
from repro.iip.offerwall import AffiliateWallConfig, OfferWallServer
from repro.iip.platform import DeveloperCredentials, VettingError
from repro.iip.registry import (
    IIP_CONFIGS,
    TABLE1_ROWS,
    UNVETTED_IIPS,
    VETTED_IIPS,
    build_platforms,
)
from tests.conftest import make_client


@pytest.fixture()
def ecosystem():
    ledger = MoneyLedger()
    mediator = AttributionMediator()
    platforms = build_platforms(ledger, mediator)
    return ledger, mediator, platforms


def register_and_fund(ledger, platform, developer_id="dev1", funds=5000.0):
    credentials = DeveloperCredentials(
        developer_id=developer_id, tax_id="TAX-1", bank_account="IBAN-1")
    platform.register_developer(credentials)
    ledger.mint(developer_id, funds, day=0)


def make_campaign(platform, developer_id="dev1", installs=500, payout=0.06,
                  category=OfferCategory.NO_ACTIVITY, kind=None, **kwargs):
    return platform.create_campaign(
        developer_id=developer_id, package="com.honey.memos",
        app_title="Voice Memos", description="Install and Launch",
        payout_usd=payout, category=category, activity_kind=kind,
        tasks=tasks_for(category, kind), installs=installs,
        start_day=0, end_day=25, **kwargs)


class TestRegistry:
    def test_table1_partition(self):
        assert set(VETTED_IIPS) == {"Fyber", "OfferToro", "AdscendMedia",
                                    "HangMyAds", "AdGem"}
        assert set(UNVETTED_IIPS) == {"ayeT-Studios", "RankApp"}

    def test_configs_match_table1(self):
        for name, vetted, home_url in TABLE1_ROWS:
            config = IIP_CONFIGS[name]
            assert config.vetted == vetted
            assert config.home_url == home_url

    def test_vetted_platforms_demand_documentation_and_deposits(self):
        for name in VETTED_IIPS:
            config = IIP_CONFIGS[name]
            assert config.requires_documentation
            assert config.min_deposit_usd >= 1000
        for name in UNVETTED_IIPS:
            config = IIP_CONFIGS[name]
            assert not config.requires_documentation
            assert config.min_deposit_usd <= 20

    def test_rankapp_is_slowest(self):
        speeds = {name: config.delivery_hours_typical
                  for name, config in IIP_CONFIGS.items()}
        assert max(speeds, key=speeds.get) == "RankApp"


class TestVetting:
    def test_vetted_platform_rejects_undocumented_developer(self, ecosystem):
        _, _, platforms = ecosystem
        with pytest.raises(VettingError, match="documentation"):
            platforms["Fyber"].register_developer(
                DeveloperCredentials(developer_id="anon"))

    def test_unvetted_platform_accepts_anyone(self, ecosystem):
        _, _, platforms = ecosystem
        platforms["RankApp"].register_developer(
            DeveloperCredentials(developer_id="anon"))
        assert platforms["RankApp"].is_registered("anon")

    def test_unregistered_developer_cannot_campaign(self, ecosystem):
        _, _, platforms = ecosystem
        with pytest.raises(VettingError, match="not registered"):
            make_campaign(platforms["Fyber"], developer_id="ghost")

    def test_minimum_deposit_enforced(self, ecosystem):
        ledger, _, platforms = ecosystem
        fyber = platforms["Fyber"]
        register_and_fund(ledger, fyber, funds=100.0)  # below $2000 minimum
        with pytest.raises(VettingError, match="deposit"):
            make_campaign(fyber)

    def test_twenty_dollars_buys_entry_to_unvetted(self, ecosystem):
        ledger, _, platforms = ecosystem
        rankapp = platforms["RankApp"]
        rankapp.register_developer(DeveloperCredentials(developer_id="dev1"))
        ledger.mint("dev1", 60.0, day=0)
        campaign = make_campaign(rankapp, installs=500, payout=0.02)
        assert campaign.state is CampaignState.PENDING


class TestCampaignLifecycle:
    def test_launch_and_deliver(self, ecosystem):
        ledger, _, platforms = ecosystem
        fyber = platforms["Fyber"]
        register_and_fund(ledger, fyber)
        campaign = make_campaign(fyber, installs=3)
        fyber.launch(campaign.campaign_id, day=1)
        assert campaign.is_live_on(1)
        for index in range(3):
            disbursement = fyber.complete_offer(
                campaign.offer.offer_id, f"device-{index}", day=1,
                affiliate_id="cashapp", user_id=f"user-{index}",
                tasks_completed=("install", "open"))
            assert disbursement is not None
        assert campaign.state is CampaignState.EXHAUSTED
        assert campaign.remaining == 0

    def test_duplicate_device_not_paid_twice(self, ecosystem):
        ledger, mediator, platforms = ecosystem
        fyber = platforms["Fyber"]
        register_and_fund(ledger, fyber)
        campaign = make_campaign(fyber, installs=10)
        fyber.launch(campaign.campaign_id, day=0)
        first = fyber.complete_offer(campaign.offer.offer_id, "device-1", 0,
                                     "cashapp", "user-1", ("install",))
        second = fyber.complete_offer(campaign.offer.offer_id, "device-1", 0,
                                      "cashapp", "user-1", ("install",))
        assert first is not None
        assert second is None
        assert campaign.delivered == 1

    def test_completion_after_exhaustion_rejected(self, ecosystem):
        ledger, _, platforms = ecosystem
        fyber = platforms["Fyber"]
        register_and_fund(ledger, fyber)
        campaign = make_campaign(fyber, installs=1)
        fyber.launch(campaign.campaign_id, day=0)
        fyber.complete_offer(campaign.offer.offer_id, "d1", 0, "a", "u1", ())
        assert fyber.complete_offer(campaign.offer.offer_id, "d2", 0,
                                    "a", "u2", ()) is None

    def test_live_offers_respects_geo_targeting(self, ecosystem):
        ledger, _, platforms = ecosystem
        fyber = platforms["Fyber"]
        register_and_fund(ledger, fyber)
        campaign = make_campaign(fyber, target_countries=("US",))
        fyber.launch(campaign.campaign_id, day=0)
        assert fyber.live_offers(0, "US")
        assert fyber.live_offers(0, "DE") == []

    def test_campaign_expires_after_end_day(self, ecosystem):
        ledger, _, platforms = ecosystem
        fyber = platforms["Fyber"]
        register_and_fund(ledger, fyber)
        campaign = make_campaign(fyber)
        fyber.launch(campaign.campaign_id, day=0)
        assert fyber.live_offers(26, "US") == []
        assert campaign.state is CampaignState.ENDED

    def test_money_flows_through_all_parties(self, ecosystem):
        ledger, mediator, platforms = ecosystem
        fyber = platforms["Fyber"]
        register_and_fund(ledger, fyber)
        campaign = make_campaign(fyber, installs=2, payout=0.10)
        fyber.launch(campaign.campaign_id, day=0)
        fyber.complete_offer(campaign.offer.offer_id, "d1", 0,
                             "cashapp", "worker-9", ("install",))
        assert ledger.balance("worker-9") == pytest.approx(0.10)
        assert ledger.balance("Fyber") > 0
        # After forwarding the user's reward the affiliate keeps its cut.
        assert 0 < ledger.balance("cashapp") < 0.10

    def test_campaign_validation(self, ecosystem):
        ledger, _, platforms = ecosystem
        fyber = platforms["Fyber"]
        register_and_fund(ledger, fyber)
        with pytest.raises(ValueError):
            make_campaign(fyber, installs=-1)
        # Zero is allowed: a purchase can round to nothing delivered
        # (the honey CLI exposes --installs-per-iip 0 for dry runs).
        campaign = make_campaign(fyber, installs=0)
        assert campaign.remaining == 0


class TestOfferWallServer:
    def _build(self, fabric, root_ca, rng, ecosystem, day=0):
        ledger, _, platforms = ecosystem
        fyber = platforms["Fyber"]
        register_and_fund(ledger, fyber)
        campaign = make_campaign(fyber, installs=100, payout=0.50)
        fyber.launch(campaign.campaign_id, day=0)
        wall = OfferWallServer(fabric, fyber, root_ca, rng,
                               current_day=lambda: day)
        wall.register_affiliate(AffiliateWallConfig(
            affiliate_id="cashapp", currency_name="coins",
            points_per_usd=1000, user_share=0.6))
        return fyber, wall, campaign

    def test_wall_serves_offers_in_points(self, fabric, root_ca, trust_store,
                                          rng, ecosystem):
        _, wall, campaign = self._build(fabric, root_ca, rng, ecosystem)
        client = make_client(fabric, trust_store, rng)
        payload = client.get(wall.hostname, "/api/v1/offers",
                             params={"affiliate_id": "cashapp"}).json()
        assert payload["iip"] == "Fyber"
        offer = payload["offers"][0]
        assert offer["payout"] == {"points": 300, "currency": "coins"}
        assert offer["app"]["package"] == "com.honey.memos"
        assert "description" in offer

    def test_wall_requires_known_affiliate(self, fabric, root_ca, trust_store,
                                           rng, ecosystem):
        _, wall, _ = self._build(fabric, root_ca, rng, ecosystem)
        client = make_client(fabric, trust_store, rng)
        response = client.get(wall.hostname, "/api/v1/offers",
                              params={"affiliate_id": "stranger"})
        assert response.status == 403
        assert client.get(wall.hostname, "/api/v1/offers").status == 400

    def test_points_round_trip(self):
        config = AffiliateWallConfig(affiliate_id="a", currency_name="coins",
                                     points_per_usd=500, user_share=0.5)
        points = config.payout_to_points(0.40)
        assert config.points_to_usd(points) == pytest.approx(0.40, abs=0.01)

    def test_invalid_wall_config_rejected(self):
        with pytest.raises(ValueError):
            AffiliateWallConfig("a", "coins", points_per_usd=0, user_share=0.5)
        with pytest.raises(ValueError):
            AffiliateWallConfig("a", "coins", points_per_usd=10, user_share=0.0)
