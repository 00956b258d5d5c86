#!/usr/bin/env python3
"""Figure 1 walk-through: one dollar through the ecosystem.

A developer funds a campaign on an IIP; the offer reaches a crowd
worker through an affiliate app; the worker installs, completes the
task, the attribution mediator certifies the conversion, and the payout
waterfall splits the advertiser's money between the IIP, the affiliate,
the worker, and the mediator.  Prints every ledger entry.

Run:  python examples/worker_economics.py
"""

import random

from repro.affiliates.app import AffiliateAppRuntime, AffiliateAppSpec
from repro.iip.accounting import MoneyLedger
from repro.iip.mediator import AttributionMediator
from repro.iip.offers import ActivityKind, OfferCategory, tasks_for
from repro.iip.offerwall import OfferWallServer
from repro.iip.platform import DeveloperCredentials
from repro.iip.registry import build_platforms
from repro.net.client import HttpClient
from repro.net.fabric import NetworkFabric
from repro.net.tls import CertificateAuthority, TrustStore
from repro.users.devices import DeviceFactory
from repro.users.worker import Worker, WorkerBehavior


def main() -> None:
    rng = random.Random(7)
    fabric = NetworkFabric()
    root_ca = CertificateAuthority("GlobalTrust Root CA", rng)
    trust = TrustStore()
    trust.add_root(root_ca.self_certificate())

    ledger = MoneyLedger()
    mediator = AttributionMediator()
    platforms = build_platforms(ledger, mediator)
    offertoro = platforms["OfferToro"]

    # 1a/1b: the developer passes review and deposits money.
    offertoro.register_developer(DeveloperCredentials(
        developer_id="dev-studio", tax_id="TAX-9", bank_account="IBAN-9"))
    ledger.mint("dev-studio", 2_000.0, day=0, memo="campaign budget")
    campaign = offertoro.create_campaign(
        developer_id="dev-studio", package="com.studio.cardquest",
        app_title="Card Quest",
        description="Install and create an account",
        payout_usd=0.34, category=OfferCategory.ACTIVITY,
        activity_kind=ActivityKind.REGISTRATION,
        tasks=tasks_for(OfferCategory.ACTIVITY, ActivityKind.REGISTRATION),
        installs=100, start_day=0, end_day=25)
    offertoro.launch(campaign.campaign_id, day=0)
    print(f"campaign live: {campaign.offer.description!r} "
          f"paying ${campaign.offer.payout_usd:.2f}/completion, "
          f"advertiser cost ${campaign.advertiser_cost_per_install_usd:.2f}")

    # 2: the offer is pushed to an affiliate app's wall.
    wall = OfferWallServer(fabric, offertoro, root_ca, rng,
                           current_day=lambda: 0)
    spec = AffiliateAppSpec(
        package="com.bigcash.app", title="BigCash", installs_display="1M+",
        integrated_iips=("OfferToro",), currency_name="points",
        points_per_usd=10_000.0)
    wall.register_affiliate(spec.wall_config())

    # 3/4: a worker browses the wall on their phone and works the offer.
    factory = DeviceFactory(fabric.asn_db, rng)
    worker = Worker("worker-ph-01", factory.real_phone("PH", trust_store=trust),
                    WorkerBehavior(abandon_activity_probability=0.0))
    client = HttpClient(fabric, worker.device.endpoint,
                        worker.device.trust_store, rng)
    runtime = AffiliateAppRuntime(spec, client, {"OfferToro": wall},
                                  platforms)
    runtime.open()
    runtime.select_tab("OfferToro")
    wall_offer = runtime.visible_offers()[0]
    print(f"worker sees: {wall_offer.title!r} -> "
          f"{wall_offer.points} {wall_offer.currency}")

    result = worker.work_offer(campaign.offer, day=0, rng=rng)
    print(f"worker completed tasks: {', '.join(result.tasks_completed)} "
          f"(registered={result.registered}, "
          f"{result.session_seconds:.0f}s in app)")

    # 5/6/7: completion is certified and the payout waterfall runs.
    paid = runtime.complete_offer(wall_offer, worker, result, day=0)
    print(f"mediator certified: {mediator.certify(wall_offer.offer_id, worker.device.device_id)}, "
          f"paid: {paid}")

    print("\nledger entries:")
    for entry in ledger.entries():
        print(f"  day {entry.day}: {entry.source:>12} -> "
              f"{entry.destination:<14} ${entry.amount_usd:8.4f}  ({entry.memo})")

    print("\nfinal balances:")
    for owner in ("dev-studio", "OfferToro", "com.bigcash.app",
                  "worker-ph-01", mediator.name):
        print(f"  {owner:<20} ${ledger.balance(owner):10.4f}")
    print(f"\nworker's in-app balance: {worker.points_earned:.0f} points "
          f"(redeemable for ~${worker.points_earned / 10_000:.2f} in gift cards)")


if __name__ == "__main__":
    main()
