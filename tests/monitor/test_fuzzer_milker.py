"""Fuzzer + milker tests: the full interception pipeline."""

import random

import pytest

from repro.affiliates.app import AffiliateAppSpec
from repro.iip.accounting import MoneyLedger
from repro.iip.mediator import AttributionMediator
from repro.iip.offerwall import OfferWallServer
from repro.iip.registry import build_platforms
from repro.monitor.dataset import OfferDataset
from repro.monitor.milker import Milker
from repro.net.ip import AsnDatabase
from repro.net.proxy import MitmProxy
from repro.net.tls import TrustStore
from repro.net.vpn import VpnExitPool
from repro.obs import Observability
from repro.users.devices import DeviceFactory
from tests.iip.test_platform import make_campaign, register_and_fund


@pytest.fixture()
def rig(fabric, root_ca, trust_store, rng):
    """Two walls, one affiliate spec, a mitm proxy, a measurement phone."""
    ledger = MoneyLedger()
    platforms = build_platforms(ledger, AttributionMediator())
    walls = {}
    for name, payout, count in (("Fyber", 0.19, 25), ("ayeT-Studios", 0.05, 5)):
        platform = platforms[name]
        register_and_fund(ledger, platform, developer_id=f"dev-{name}",
                          funds=20000.0)
        for index in range(count):
            target = ("US", "GB") if name == "Fyber" and index == 0 else None
            campaign = make_campaign(platform, developer_id=f"dev-{name}",
                                     installs=50, payout=payout,
                                     target_countries=target)
            platform.launch(campaign.campaign_id, day=0)
        walls[name] = OfferWallServer(fabric, platform, root_ca, rng,
                                      current_day=lambda: 3)
    spec = AffiliateAppSpec(
        package="com.ayet.cashpirate", title="CashPirate",
        installs_display="1M+", integrated_iips=("Fyber", "ayeT-Studios"),
        currency_name="pirate coins", points_per_usd=2500.0)
    for wall in walls.values():
        wall.register_affiliate(spec.wall_config())
    mitm_address = fabric.asn_db.allocate(14061, rng)
    mitm = MitmProxy(fabric, "mitm.lab.example", mitm_address, rng,
                     upstream_trust=trust_store)
    phone_store = TrustStore()
    phone_store.add_root(root_ca.self_certificate())
    phone_store.add_root(mitm.ca_certificate())
    phone = DeviceFactory(fabric.asn_db, rng).real_phone(
        "US", trust_store=phone_store)
    vpn = VpnExitPool(fabric, rng, countries=("US", "DE", "GB"))
    milker = Milker(fabric, phone, mitm, walls, rng, vpn=vpn)
    return milker, spec, walls


class TestMilker:
    def test_milk_collects_all_offers(self, rig):
        milker, spec, _ = rig
        run = milker.milk(spec, day=3, country="US")
        assert run.walls_seen == ["Fyber", "ayeT-Studios"]
        assert len(run.offers) == 30
        assert run.errors == []
        assert run.fuzz_report is not None
        # 25 Fyber offers need one extra page beyond the first.
        assert run.fuzz_report.scrolls >= 1
        assert set(run.fuzz_report.tabs_opened) == {"Fyber", "ayeT-Studios"}

    def test_geo_targeted_offer_only_visible_from_target(self, rig):
        milker, spec, _ = rig
        us_run = milker.milk(spec, day=3, country="US")
        de_run = milker.milk(spec, day=3, country="DE")
        assert len(us_run.offers) == 30
        assert len(de_run.offers) == 29  # the US/GB-targeted offer is hidden

    def test_observed_offers_carry_points_and_description(self, rig):
        milker, spec, _ = rig
        run = milker.milk(spec, day=3, country="US")
        fyber_offers = [o for o in run.offers if o.iip_name == "Fyber"]
        assert fyber_offers[0].payout_points == 475  # $0.19 * 2500
        assert "Install" in fyber_offers[0].description
        assert fyber_offers[0].affiliate_package == spec.package

    def test_milk_without_vpn_uses_direct_route(self, rig):
        milker, spec, _ = rig
        run = milker.milk(spec, day=3, country=None)
        assert len(run.offers) == 30
        assert run.country is None

    def test_pinned_wall_defeats_milking(self, rig, fabric):
        milker, spec, walls = rig
        # Simulate the affiliate SDK pinning the Fyber wall's real key.
        milker.phone.trust_store  # phone trusts mitm CA, but pin wins
        pins = {walls["Fyber"].hostname: walls["Fyber"]._server.identity.leaf.fingerprint()}
        from repro.net.client import HttpClient
        client = HttpClient(fabric, milker.phone.endpoint,
                            milker.phone.trust_store, milker._rng,
                            proxy=(milker.mitm.hostname, milker.mitm.port),
                            pinned_fingerprints=pins)
        from repro.affiliates.app import AffiliateAppRuntime
        milker.mitm.upstream_proxy = None
        runtime = AffiliateAppRuntime(spec, client, walls)
        runtime.open()
        from repro.net.errors import CertificatePinningError
        with pytest.raises(CertificatePinningError):
            runtime.select_tab("Fyber")

    def test_dataset_ingestion_normalizes_points(self, rig):
        milker, spec, _ = rig
        run = milker.milk(spec, day=3, country="US")
        dataset = OfferDataset({spec.package: spec})
        dataset.ingest_all(run.offers)
        assert dataset.offer_count() == 30
        fyber = [record for record in dataset.offers()
                 if record.iip_name == "Fyber"]
        assert all(abs(record.payout_usd - 0.19) < 0.001 for record in fyber)

    def test_dataset_dedups_across_days_and_tracks_window(self, rig):
        milker, spec, _ = rig
        dataset = OfferDataset({spec.package: spec})
        dataset.ingest_all(milker.milk(spec, day=3, country="US").offers)
        dataset.ingest_all(milker.milk(spec, day=5, country="GB").offers)
        assert dataset.offer_count() == 30
        record = next(record for record in dataset.offers()
                      if record.iip_name == "Fyber")
        assert record.first_seen_day == 3
        assert record.last_seen_day == 5
        assert record.countries == {"US", "GB"}

    def test_each_run_opens_its_own_tls_sessions(self, rig):
        # Two apps milked on one day in one cell: each run opens both
        # walls with a full handshake to the mitm, so no session
        # crosses apps, then resumes inside the run.
        milker, spec, walls = rig
        other = AffiliateAppSpec(
            package="com.bigcash.app", title="BigCash",
            installs_display="1M+", integrated_iips=("Fyber", "ayeT-Studios"),
            currency_name="cash", points_per_usd=1000.0)
        for wall in walls.values():
            wall.register_affiliate(other.wall_config())
        for app in (spec, other):
            obs = Observability()
            run = milker.milk(app, day=3, country="US", obs=obs)
            assert run.walls_seen == ["Fyber", "ayeT-Studios"]
            counters = obs.metrics.counters()
            for wall in walls.values():
                key = f"net.client.tls_handshakes{{host={wall.hostname}}}"
                assert counters[key] == 1
            assert obs.metrics.counter_total("net.client.tls_resumptions") > 0

    def test_unknown_exchange_rate_rejected(self, rig):
        milker, spec, _ = rig
        run = milker.milk(spec, day=3, country="US")
        dataset = OfferDataset({})
        with pytest.raises(KeyError):
            dataset.ingest(run.offers[0])
