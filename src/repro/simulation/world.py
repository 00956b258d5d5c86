"""World assembly: every subsystem wired onto one fabric.

A ``World`` owns the network, the Play Store and its HTTPS front end,
the seven IIPs and their offer-wall servers, the affiliate-app specs
registered with those walls, the telemetry collector, the VPN exit
pool, the Crunchbase database, and the APK corpus.  Scenarios populate
it; measurement pipelines observe it.
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.affiliates.registry import AFFILIATE_SPECS
from repro.crunchbase.database import CrunchbaseDatabase
from repro.honeyapp.server import TelemetryServer
from repro.iip.accounting import MoneyLedger
from repro.iip.mediator import AttributionMediator
from repro.iip.offerwall import OfferWallServer
from repro.iip.registry import build_platforms
from repro.net.chaos import ChaosScenario, FaultPlan
from repro.net.client import HttpClient, RetryPolicy, TlsSessionCache
from repro.net.fabric import Endpoint, NetworkFabric
from repro.net.proxy import MitmProxy
from repro.net.tls import CertificateAuthority, TrustStore
from repro.net.vpn import VpnExitPool
from repro.obs import Observability
from repro.playstore.frontend import PlayStoreFrontend
from repro.playstore.store import PlayStore
from repro.simulation.clock import SimulationClock
from repro.simulation.seeds import SeedSequence
from repro.staticanalysis.apk import ApkRepository
from repro.users.devices import Device, DeviceFactory


class World:
    """The full simulated ecosystem."""

    def __init__(self, seed: int = 2019,
                 obs: Optional[Observability] = None,
                 chaos: Optional[ChaosScenario] = None) -> None:
        self.seeds = SeedSequence(seed)
        self.clock = SimulationClock()
        #: Observability context shared by every component on this
        #: world's fabric.  Trace timestamps come from the simulation
        #: clock (never wall time), so exports are deterministic.
        self.obs = obs or Observability()
        self.obs.bind_clock(self.clock.now)
        self.fabric = NetworkFabric(obs=self.obs)
        #: Chaos config for this world; the fault plan schedules every
        #: injected failure on the simulation day clock so same-seed
        #: chaos runs are byte-identical.
        self.chaos = chaos or ChaosScenario.off()
        self.fabric.set_chaos(FaultPlan(self.chaos, clock=self.clock.now))
        ca_rng = self.seeds.rng("ca")
        self.root_ca = CertificateAuthority("GlobalTrust Root CA", ca_rng)
        self.public_trust = TrustStore()
        self.public_trust.add_root(self.root_ca.self_certificate())

        self.store = PlayStore()
        self.frontend = PlayStoreFrontend(
            self.fabric, self.store, self.root_ca,
            self.seeds.rng("frontend"), current_day=self.clock.now)

        self.money = MoneyLedger()
        self.mediator = AttributionMediator()
        self.platforms = build_platforms(self.money, self.mediator)
        #: The one handshake RNG every offer wall's server shares.
        self.wall_rng = self.seeds.rng("walls")
        self.walls: Dict[str, OfferWallServer] = {
            name: OfferWallServer(self.fabric, platform, self.root_ca,
                                  self.wall_rng, current_day=self.clock.now)
            for name, platform in self.platforms.items()
        }
        for spec in AFFILIATE_SPECS.values():
            for iip_name in spec.integrated_iips:
                self.walls[iip_name].register_affiliate(spec.wall_config())

        self.telemetry = TelemetryServer(self.fabric, self.root_ca,
                                         self.seeds.rng("telemetry"))
        # Exit-pool address allocation follows the country order.
        self.vpn = VpnExitPool(self.fabric, self.seeds.rng("vpn"))
        self.crunchbase = CrunchbaseDatabase()
        self.apks = ApkRepository()
        self.device_factory = DeviceFactory(self.fabric.asn_db,
                                            self.seeds.rng("devices"))

    # -- helpers ------------------------------------------------------------

    def device_trust_store(self) -> TrustStore:
        """A fresh trust store containing the public root (what a stock
        Android device ships with)."""
        store = TrustStore()
        store.add_root(self.root_ca.self_certificate())
        return store

    def client_for(self, device: Device,
                   rng: Optional[random.Random] = None,
                   obs: Optional[Observability] = None,
                   session_cache: Optional[TlsSessionCache] = None,
                   today: Optional[int] = None) -> HttpClient:
        """A client bound to ``device``.

        Honey campaign tasks pass a task-local ``obs`` and a per-cell
        ``session_cache`` (TLS resumption) plus the logical ``today`` of
        the traffic, which keys the cache's day-rollover invalidation.
        """
        return HttpClient(self.fabric, device.endpoint, device.trust_store,
                          rng or self.seeds.rng(f"client:{device.device_id}"),
                          today=self.clock.day if today is None else today,
                          obs=obs, session_cache=session_cache)

    def measurement_client(self, retry_policy: Optional[RetryPolicy] = None
                           ) -> HttpClient:
        """A well-connected client for crawlers (university network).

        It carries its own :class:`TlsSessionCache`, so requests to a
        host on the client's ``today`` share one TLS session: the
        crawler stamps each visit's day, and the session rolls over
        with it.
        """
        crawler_rng = self.seeds.rng("crawler-client")
        asn = self.fabric.asn_db.asns_in_country("US", kind="eyeball")[0]
        address = self.fabric.asn_db.allocate(asn.number, crawler_rng)
        return HttpClient(self.fabric, Endpoint(address=address),
                          self.public_trust, crawler_rng,
                          retry_policy=retry_policy,
                          session_cache=TlsSessionCache())

    def detection_hook(self, source: str):
        """A :class:`~repro.detection.live.LiveDetection` hook bound to
        this world's observability context.

        Pass it as ``detection=`` to either core pipeline; ``source``
        labels the ``detection.events_ingested`` counter (``honey`` /
        ``wild`` / ``corpus``) and picks the detector thresholds.
        Imported lazily so worlds that never detect don't pay for the
        detection package.
        """
        from repro.detection.live import LiveDetection
        return LiveDetection(obs=self.obs, source=source)

    def build_mitm(self, hostname: str = "mitm.lab.example") -> MitmProxy:
        # Seeded per hostname so several mitm proxies (one per milk
        # cell) get independent, stable RNG streams.
        rng = self.seeds.rng(f"mitm:{hostname}")
        address = self.fabric.asn_db.allocate(14061, rng)
        return MitmProxy(self.fabric, hostname, address, rng,
                         upstream_trust=self.public_trust,
                         obs=self.obs, current_day=self.clock.now)
