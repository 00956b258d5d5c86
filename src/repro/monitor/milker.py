"""The milker: fuzzer + TLS interception + offer parsing.

One milk run = instrument an affiliate app on the measurement phone
(whose trust store contains the mitm proxy's CA), point the phone's
HTTP stack at the proxy, optionally route the proxy's upstream side
through a VPN country exit, run the UI fuzzer, and parse every
intercepted offer-wall response into :class:`ObservedOffer` records.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.affiliates.app import AffiliateAppRuntime, AffiliateAppSpec
from repro.checkpointed import Checkpointed
from repro.iip.offerwall import OfferWallServer
from repro.monitor.dataset import ObservedOffer
from repro.monitor.fuzzer import FuzzReport, UiFuzzer
from repro.net.client import (
    CircuitBreaker,
    HttpClient,
    RetryPolicy,
    TlsSessionCache,
)
from repro.net.errors import NetError, TlsError
from repro.net.fabric import NetworkFabric
from repro.net.proxy import MitmProxy
from repro.net.vpn import VpnExitPool
from repro.obs import LabelKeys, Observability
from repro.users.devices import Device


@dataclass
class MilkRun:
    """The outcome of milking one affiliate app from one country."""

    app_package: str
    country: Optional[str]
    day: int
    offers: List[ObservedOffer] = field(default_factory=list)
    fuzz_report: Optional[FuzzReport] = None
    walls_seen: List[str] = field(default_factory=list)
    #: Walls whose milking failed this run (dead host, pinning, corrupt
    #: payloads); a partial run still keeps every other wall's offers.
    walls_lost: List[str] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def degraded(self) -> bool:
        return bool(self.walls_lost)


class Milker(Checkpointed):
    """Owns the measurement phone, the mitm proxy, and the fuzzer.

    One milk cell's checkpoint is the phone client's RNG, the cell's
    circuit breaker and the mitm proxy.
    """

    _STATE = ("_rng", "breaker", "mitm")

    def __init__(
        self,
        fabric: NetworkFabric,
        phone: Device,
        mitm: MitmProxy,
        walls: Mapping[str, OfferWallServer],
        rng: random.Random,
        vpn: Optional[VpnExitPool] = None,
        obs: Optional[Observability] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        """``phone.trust_store`` must already contain ``mitm``'s CA
        certificate (the self-signed cert installed on the device).

        ``retry_policy`` and ``breaker`` (both optional) are handed to
        the measurement phone's HTTP client; the breaker is shared
        across milk runs so a persistently dead wall stays quarantined
        until its half-open window elapses.  Each run gives the phone a
        fresh :class:`TlsSessionCache`: the app resumes its TLS sessions
        with the mitm proxy instead of re-handshaking per request, and
        no session outlives the run.
        """
        self._fabric = fabric
        self.phone = phone
        self.mitm = mitm
        self._walls = dict(walls)
        self._rng = rng
        self._vpn = vpn
        self._fuzzer = UiFuzzer()
        self.obs = obs or fabric.obs
        self.retry_policy = retry_policy
        self.breaker = breaker
        self._offer_keys = LabelKeys("iip", "country")

    def milk(self, spec: AffiliateAppSpec, day: int,
             country: Optional[str] = None,
             obs: Optional[Observability] = None) -> MilkRun:
        """Run the full pipeline for one affiliate app.

        ``obs`` overrides the milker's context for this run: the wild
        pipeline hands every run a task-local context and merges them
        back in canonical order, so exports never depend on task order.
        """
        obs = obs or self.obs
        with obs.tracer.span("milk.run", app=spec.package,
                             country=country or "-", day=day):
            run = self._milk_inner(spec, day, country, obs)
        metrics = obs.metrics
        metrics.inc("monitor.milk_runs", app=spec.package,
                    country=country or "-")
        offer_keys, country_label = self._offer_keys, country or "-"
        for offer in run.offers:
            metrics.inc_keyed("monitor.offers_milked",
                              offer_keys[offer.iip_name, country_label])
        if run.errors:
            metrics.inc("monitor.milk_errors", len(run.errors),
                        app=spec.package)
        if run.walls_lost:
            metrics.inc("monitor.milk_partial", app=spec.package)
            for iip_name in run.walls_lost:
                metrics.inc("monitor.walls_lost", iip=iip_name,
                            app=spec.package)
        return run

    def _milk_inner(self, spec: AffiliateAppSpec, day: int,
                    country: Optional[str],
                    obs: Optional[Observability] = None) -> MilkRun:
        obs = obs or self.obs
        run = MilkRun(app_package=spec.package, country=country, day=day)
        if country is not None:
            if self._vpn is None:
                raise ValueError("country milking requires a VPN pool")
            self.mitm.upstream_proxy = self._vpn.proxy_address(country)
        else:
            self.mitm.upstream_proxy = None
        client = HttpClient(
            self._fabric, self.phone.endpoint, self.phone.trust_store,
            self._rng, proxy=(self.mitm.hostname, self.mitm.port),
            obs=obs, retry_policy=self.retry_policy,
            breaker=self.breaker,
            session_cache=TlsSessionCache(), today=day)
        self.mitm.clear()
        try:
            runtime = AffiliateAppRuntime(spec, client, self._walls)
        except ValueError as exc:
            run.errors.append(str(exc))
            return run
        try:
            run.fuzz_report = self._fuzzer.run(runtime)
            run.errors.extend(run.fuzz_report.errors)
        except (NetError, TlsError) as exc:
            run.errors.append(f"{type(exc).__name__}: {exc}")
        run.offers = self._parse_intercepted(spec, day, country, run, obs)
        run.walls_seen = sorted({offer.iip_name for offer in run.offers})
        lost = set(run.fuzz_report.tabs_failed if run.fuzz_report else ())
        if run.fuzz_report is None:
            # The whole session died: every wall we never saw is lost.
            lost.update(set(spec.integrated_iips) - set(run.walls_seen))
        run.walls_lost = sorted(lost)
        return run

    def _parse_intercepted(self, spec: AffiliateAppSpec, day: int,
                           country: Optional[str],
                           run: Optional[MilkRun] = None,
                           obs: Optional[Observability] = None) -> List[ObservedOffer]:
        observed: List[ObservedOffer] = []
        metrics = (obs or self.obs).metrics
        for exchange in self.mitm.intercepted:
            if not exchange.request.path.startswith("/api/"):
                continue
            if not exchange.response.ok:
                continue
            try:
                payload = exchange.response.json()
            except NetError:
                # Rate-limited / corrupted offer-wall bodies: count the
                # loss instead of silently dropping the exchange.
                metrics.inc("monitor.corrupt_wall_responses",
                            host=exchange.host)
                if run is not None:
                    run.errors.append(
                        f"{exchange.host}: corrupt offer-wall response")
                continue
            if not isinstance(payload, dict) or "offers" not in payload:
                metrics.inc("monitor.corrupt_wall_responses",
                            host=exchange.host)
                continue
            # The same offer is milked again and again; interning keeps
            # one copy of each string across the offers a run keeps.
            iip_name = sys.intern(str(payload.get("iip", "")))
            for entry in payload["offers"]:
                try:
                    observed.append(ObservedOffer(
                        iip_name=iip_name,
                        offer_id=sys.intern(str(entry["offer_id"])),
                        package=sys.intern(str(entry["app"]["package"])),
                        app_title=sys.intern(str(entry["app"]["title"])),
                        play_store_url=sys.intern(
                            str(entry["app"]["play_store_url"])),
                        description=sys.intern(str(entry["description"])),
                        payout_points=int(entry["payout"]["points"]),
                        currency=sys.intern(str(entry["payout"]["currency"])),
                        affiliate_package=spec.package,
                        country=country,
                        day=day,
                    ))
                except (KeyError, TypeError, ValueError):
                    metrics.inc("monitor.corrupt_offer_entries",
                                iip=iip_name or exchange.host)
                    if run is not None:
                        run.errors.append(
                            f"{exchange.host}: malformed offer entry")
        return observed
