"""Country-exit VPN proxy pool (the repo's luminati.io substitute).

The paper ran its milkers from eight countries using datacenter VPN
proxies.  Geo-targeted offers are only visible when the request's source
address geolocates to the targeted country, so running from more exit
countries genuinely increases offer coverage -- an effect the coverage
ablation bench measures.

Each exit is a :class:`~repro.net.proxy.ForwardProxy` whose fabric
address sits inside a datacenter ASN of the exit country (falling back
to a US datacenter ASN when the country hosts none, as commercial VPNs
do).  Because the exit relays the tunnelled bytes, the upstream server
sees the exit's address and geo-targets accordingly.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.net.fabric import NetworkFabric
from repro.net.ip import MILKER_COUNTRIES, AsnDatabase
from repro.net.proxy import ForwardProxy

#: Domain of the VPN provider's exit hostnames.
VPN_PROVIDER = "luminati.example"


class VpnExitPool:
    """A set of per-country forward proxies on the fabric."""

    def __init__(
        self,
        fabric: NetworkFabric,
        rng: random.Random,
        countries: Tuple[str, ...] = MILKER_COUNTRIES,
    ) -> None:
        self.fabric = fabric
        self._exits: Dict[str, ForwardProxy] = {}
        asn_db = fabric.asn_db
        for country in countries:
            self._exits[country] = self._build_exit(asn_db, rng, country)

    def _build_exit(self, asn_db: AsnDatabase, rng: random.Random,
                    country: str) -> ForwardProxy:
        candidates = asn_db.asns_in_country(country, kind="datacenter")
        if not candidates:
            candidates = asn_db.datacenter_asns()
        asn = candidates[0]
        address = asn_db.allocate(asn.number, rng)
        hostname = f"exit-{country.lower()}.{VPN_PROVIDER}"
        # The chaos engine models VPN exits dropping for whole days;
        # marking the exit lets the fault plan target it specifically.
        self.fabric.chaos.mark_vpn_exit(hostname)
        return ForwardProxy(self.fabric, hostname, address)

    def countries(self) -> List[str]:
        return sorted(self._exits)

    def exit_for(self, country: str) -> ForwardProxy:
        try:
            return self._exits[country]
        except KeyError:
            raise KeyError(f"no VPN exit in {country!r}") from None

    def proxy_address(self, country: str) -> Tuple[str, int]:
        """The ``(hostname, port)`` pair to configure on a client."""
        exit_proxy = self.exit_for(country)
        return exit_proxy.hostname, exit_proxy.port

    def exit_country_of(self, hostname: str) -> Optional[str]:
        for country, exit_proxy in self._exits.items():
            if exit_proxy.hostname == hostname:
                return country
        return None
