"""Affiliate app runtime, UI tree, and registry tests."""

import random

import pytest

from repro.affiliates.app import AffiliateAppRuntime, AffiliateAppSpec
from repro.affiliates.registry import (
    AFFILIATE_SPECS,
    INSTRUMENTED_AFFILIATES,
    affiliates_integrating,
    has_money_keyword,
    iips_integrated_by,
)
from repro.affiliates.ui import OfferListView, TabView, View
from repro.iip.accounting import MoneyLedger
from repro.iip.mediator import AttributionMediator
from repro.iip.offers import OfferCategory, tasks_for
from repro.iip.offerwall import OfferWallServer
from repro.iip.registry import build_platforms
from repro.net.ip import AsnDatabase
from repro.users.devices import DeviceFactory
from repro.users.worker import Worker, WorkerBehavior
from tests.conftest import make_client
from tests.iip.test_platform import make_campaign, register_and_fund


@pytest.fixture()
def wired(fabric, root_ca, trust_store, rng):
    """Fyber + ayeT walls live on the fabric, with live campaigns."""
    ledger = MoneyLedger()
    mediator = AttributionMediator()
    platforms = build_platforms(ledger, mediator)
    walls = {}
    for name in ("Fyber", "ayeT-Studios"):
        platform = platforms[name]
        register_and_fund(ledger, platform, developer_id=f"dev-{name}",
                          funds=10000.0)
        for index in range(30):  # enough offers to force pagination
            campaign = make_campaign(platform, developer_id=f"dev-{name}",
                                     installs=50, payout=0.06)
            platform.launch(campaign.campaign_id, day=0)
        walls[name] = OfferWallServer(fabric, platform, root_ca, rng,
                                      current_day=lambda: 0)
    spec = AffiliateAppSpec(
        package="com.ayet.cashpirate", title="CashPirate",
        installs_display="1M+", integrated_iips=("Fyber", "ayeT-Studios"),
        currency_name="pirate coins", points_per_usd=2500.0)
    for wall in walls.values():
        wall.register_affiliate(spec.wall_config())
    client = make_client(fabric, trust_store, rng)
    runtime = AffiliateAppRuntime(spec, client, walls, platforms)
    return runtime, platforms, ledger


class TestUiTree:
    def test_view_walk_and_find(self):
        root = View("root", "FrameLayout")
        child = root.add(View("list", "OfferListView"))
        child.add(View("card0", "OfferCardView", text="x"))
        assert len(list(root.walk())) == 3
        assert root.find_by_id("card0").text == "x"
        assert root.find_by_id("nope") is None
        assert [v.view_id for v in root.find_by_class("OfferCardView")] == ["card0"]


class TestRuntime:
    def test_open_builds_one_tab_per_wall(self, wired):
        runtime, _, _ = wired
        root = runtime.open()
        tabs = root.find_by_class("TabView")
        assert {tab.iip_name for tab in tabs} == {"Fyber", "ayeT-Studios"}

    def test_tab_select_loads_first_page(self, wired):
        runtime, _, _ = wired
        runtime.open()
        runtime.select_tab("Fyber")
        offers = runtime.visible_offers()
        assert len(offers) == 20  # one wall page
        assert all(offer.iip_name == "Fyber" for offer in offers)
        assert all(offer.currency == "pirate coins" for offer in offers)

    def test_scroll_paginates_to_exhaustion(self, wired):
        runtime, _, _ = wired
        runtime.open()
        runtime.select_tab("Fyber")
        scrolls = 0
        while runtime.scroll():
            scrolls += 1
            assert scrolls < 10  # safety
        assert len(runtime.visible_offers()) == 30
        offer_list = runtime.root.find_by_id("offer_list")
        assert isinstance(offer_list, OfferListView)
        assert offer_list.fully_loaded
        assert len(offer_list.cards) == 30

    def test_offers_across_tabs_accumulate(self, wired):
        runtime, _, _ = wired
        runtime.open()
        for tab in ("Fyber", "ayeT-Studios"):
            runtime.select_tab(tab)
            while runtime.scroll():
                pass
        assert len(runtime.all_loaded_offers()) == 60

    def test_unknown_tab_rejected(self, wired):
        runtime, _, _ = wired
        runtime.open()
        with pytest.raises(KeyError):
            runtime.select_tab("RankApp")

    def test_points_reflect_wall_conversion(self, wired):
        runtime, _, _ = wired
        runtime.open()
        runtime.select_tab("Fyber")
        offer = runtime.visible_offers()[0]
        assert offer.points == 150  # $0.06 * 2500 points/USD

    def test_complete_offer_pays_worker(self, wired, rng):
        runtime, platforms, ledger = wired
        runtime.open()
        runtime.select_tab("Fyber")
        wall_offer = runtime.visible_offers()[0]
        factory = DeviceFactory(AsnDatabase(), rng)
        worker = Worker("w1", factory.real_phone("IN"), WorkerBehavior())
        campaign = platforms["Fyber"].campaign_for_offer(wall_offer.offer_id)
        result = worker.work_offer(campaign.offer, day=0, rng=rng)
        paid = runtime.complete_offer(wall_offer, worker, result, day=0)
        assert paid
        assert worker.points_earned == 150
        assert ledger.balance("w1") == pytest.approx(0.06)
        # A second report for the same device is rejected by attribution.
        assert not runtime.complete_offer(wall_offer, worker, result, day=0)

    def test_spec_requires_matching_walls(self, wired, fabric, trust_store, rng):
        runtime, platforms, _ = wired
        spec = AffiliateAppSpec(
            package="com.other.app", title="Other", installs_display="1K+",
            integrated_iips=("RankApp",), currency_name="x", points_per_usd=10)
        client = make_client(fabric, trust_store, rng)
        with pytest.raises(ValueError, match="walls missing"):
            AffiliateAppRuntime(spec, client, {}, platforms)


class TestRegistry:
    def test_eight_instrumented_apps(self):
        assert len(INSTRUMENTED_AFFILIATES) == 8
        assert "com.mobvantage.CashForApps" in INSTRUMENTED_AFFILIATES

    def test_table2_integrations(self):
        assert iips_integrated_by("com.mobvantage.CashForApps") == (
            "Fyber", "AdGem", "HangMyAds", "ayeT-Studios")
        assert iips_integrated_by("proxima.moneyapp.android") == ("Fyber",)
        assert iips_integrated_by("eu.makemoney") == ("AdscendMedia", "RankApp")

    def test_every_instrumented_app_has_a_vetted_wall(self):
        vetted = {"Fyber", "OfferToro", "AdscendMedia", "HangMyAds", "AdGem"}
        for package in INSTRUMENTED_AFFILIATES:
            assert set(iips_integrated_by(package)) & vetted

    def test_seven_iips_covered(self):
        covered = set()
        for package in INSTRUMENTED_AFFILIATES:
            covered.update(iips_integrated_by(package))
        assert len(covered) == 7

    def test_affiliates_integrating(self):
        assert "proxima.moneyapp.android" in affiliates_integrating("Fyber")
        assert affiliates_integrating("RankApp") == [
            "eu.makemoney", "com.growrich.makemoney"]

    def test_money_keyword_detector(self):
        assert has_money_keyword("com.ayet.cashpirate")
        assert has_money_keyword("eu.makemoney")
        assert has_money_keyword("com.rewardzone.app")
        assert not has_money_keyword("com.whatsapp")

    def test_specs_have_positive_rates(self):
        for spec in AFFILIATE_SPECS.values():
            assert spec.points_per_usd > 0
