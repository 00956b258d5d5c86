"""Figure 1: the end-to-end campaign workflow and money waterfall.

Benchmarks one full offer lifecycle -- developer deposit, campaign
creation, wall distribution over HTTPS, worker completion, mediator
certification, four-party disbursement -- and asserts conservation of
money plus the documented ordering of cuts.
"""

import random

import pytest

from repro.affiliates.app import AffiliateAppRuntime, AffiliateAppSpec
from repro.iip.accounting import MoneyLedger
from repro.iip.mediator import AttributionMediator
from repro.iip.offers import OfferCategory, tasks_for
from repro.iip.offerwall import OfferWallServer
from repro.iip.platform import DeveloperCredentials
from repro.iip.registry import build_platforms
from repro.net.client import HttpClient
from repro.net.fabric import NetworkFabric
from repro.net.tls import CertificateAuthority, TrustStore
from repro.users.devices import DeviceFactory
from repro.users.worker import Worker, WorkerBehavior


def run_workflow():
    rng = random.Random(123)
    fabric = NetworkFabric()
    ca = CertificateAuthority("Root", rng)
    trust = TrustStore()
    trust.add_root(ca.self_certificate())
    ledger = MoneyLedger()
    mediator = AttributionMediator()
    platforms = build_platforms(ledger, mediator)
    fyber = platforms["Fyber"]
    fyber.register_developer(DeveloperCredentials(
        developer_id="dev", tax_id="T", bank_account="B"))
    ledger.mint("dev", 5000.0, day=0)
    campaign = fyber.create_campaign(
        developer_id="dev", package="com.example.app", app_title="App",
        description="Install and Launch", payout_usd=0.06,
        category=OfferCategory.NO_ACTIVITY, activity_kind=None,
        tasks=tasks_for(OfferCategory.NO_ACTIVITY, None),
        installs=10, start_day=0, end_day=25)
    fyber.launch(campaign.campaign_id, 0)
    wall = OfferWallServer(fabric, fyber, ca, rng, current_day=lambda: 0)
    spec = AffiliateAppSpec(package="com.aff.app", title="Aff",
                            installs_display="1M+",
                            integrated_iips=("Fyber",),
                            currency_name="coins", points_per_usd=1000.0)
    wall.register_affiliate(spec.wall_config())
    factory = DeviceFactory(fabric.asn_db, rng)
    worker = Worker("worker-1", factory.real_phone("IN", trust_store=trust),
                    WorkerBehavior())
    client = HttpClient(fabric, worker.device.endpoint,
                        worker.device.trust_store, rng)
    runtime = AffiliateAppRuntime(spec, client, {"Fyber": wall}, platforms)
    runtime.open()
    runtime.select_tab("Fyber")
    offer = runtime.visible_offers()[0]
    result = worker.work_offer(campaign.offer, 0, rng)
    paid = runtime.complete_offer(offer, worker, result, 0)
    return ledger, mediator, campaign, worker, paid


def test_fig1_workflow(benchmark):
    ledger, mediator, campaign, worker, paid = benchmark(run_workflow)
    assert paid
    assert campaign.delivered == 1
    assert mediator.total_conversions == 1

    balances = {owner: ledger.balance(owner)
                for owner in ("dev", "Fyber", "com.aff.app", "worker-1",
                              mediator.name)}
    # Money is conserved across the waterfall.
    assert sum(balances.values()) == pytest.approx(5000.0)
    # The worker received the advertised payout, intermediaries their cuts.
    assert balances["worker-1"] == pytest.approx(0.06)
    assert 0 < balances["Fyber"] < 0.06
    assert 0 < balances["com.aff.app"] < 0.06
    assert balances[mediator.name] == pytest.approx(0.03)
    # Incentivized installs cost cents, not the $1.22 of regular ads.
    assert campaign.advertiser_cost_per_install_usd < 0.25
