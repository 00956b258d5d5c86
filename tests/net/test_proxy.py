"""Proxy tests: forward relay semantics, mitm interception, VPN exits."""

import random

import pytest

from repro.net.errors import CertificateVerificationError
from repro.net.fabric import Endpoint
from repro.net.http import HttpResponse
from repro.net.proxy import ForwardProxy, MitmProxy
from repro.net.tls import TrustStore
from repro.net.vpn import VpnExitPool
from repro.obs import Observability
from tests.conftest import make_client, make_https_server


def _forward_proxy(fabric, rng, hostname="fwd.example", obs=None):
    address = fabric.asn_db.allocate(16509, rng)
    return ForwardProxy(fabric, hostname, address, obs=obs)


def _mitm_proxy(fabric, rng, upstream_trust, hostname="mitm.example",
                obs=None):
    address = fabric.asn_db.allocate(16509, rng)
    return MitmProxy(fabric, hostname, address, rng,
                     upstream_trust=upstream_trust, obs=obs)


class TestForwardProxy:
    def test_tunnelled_request_succeeds(self, fabric, root_ca, trust_store,
                                        rng, https_server):
        proxy = _forward_proxy(fabric, rng)
        client = make_client(fabric, trust_store, rng,
                             proxy=(proxy.hostname, proxy.port))
        response = client.get("api.example.com", "/json")
        assert response.ok

    def test_server_sees_proxy_address(self, fabric, root_ca, trust_store,
                                       rng, https_server):
        proxy = _forward_proxy(fabric, rng)
        client = make_client(fabric, trust_store, rng,
                             proxy=(proxy.hostname, proxy.port))
        response = client.get("api.example.com", "/json")
        assert response.json()["client"] == str(proxy.endpoint.address)

    def test_tls_still_verified_through_tunnel(self, fabric, root_ca, rng,
                                               https_server):
        proxy = _forward_proxy(fabric, rng)
        client = make_client(fabric, TrustStore(), rng,
                             proxy=(proxy.hostname, proxy.port))
        with pytest.raises(CertificateVerificationError):
            client.get("api.example.com", "/json")


class TestMitmProxy:
    def test_interception_with_installed_ca(self, fabric, root_ca, trust_store,
                                            rng, https_server):
        mitm = _mitm_proxy(fabric, rng, upstream_trust=trust_store)
        victim_store = TrustStore()
        victim_store.add_root(root_ca.self_certificate())
        victim_store.add_root(mitm.ca_certificate())
        client = make_client(fabric, victim_store, rng,
                             proxy=(mitm.hostname, mitm.port))
        response = client.get("api.example.com", "/json", params={"c": "US"})
        assert response.ok
        assert len(mitm.intercepted) == 1
        exchange = mitm.intercepted[0]
        assert exchange.host == "api.example.com"
        assert exchange.request.query == {"c": "US"}
        assert exchange.response.json()["query"] == {"c": "US"}

    def test_interception_fails_without_installed_ca(self, fabric, root_ca,
                                                     trust_store, rng,
                                                     https_server):
        mitm = _mitm_proxy(fabric, rng, upstream_trust=trust_store)
        client = make_client(fabric, trust_store, rng,
                             proxy=(mitm.hostname, mitm.port))
        with pytest.raises(CertificateVerificationError):
            client.get("api.example.com", "/json")
        assert mitm.intercepted == []

    def test_pinning_defeats_interception(self, fabric, root_ca, trust_store,
                                          rng, https_server):
        from repro.net.errors import CertificatePinningError
        mitm = _mitm_proxy(fabric, rng, upstream_trust=trust_store)
        victim_store = TrustStore()
        victim_store.add_root(root_ca.self_certificate())
        victim_store.add_root(mitm.ca_certificate())
        pins = {"api.example.com": https_server.identity.leaf.fingerprint()}
        client = make_client(fabric, victim_store, rng,
                             proxy=(mitm.hostname, mitm.port), pins=pins)
        with pytest.raises(CertificatePinningError):
            client.get("api.example.com", "/json")
        assert mitm.intercepted == []

    def test_clear_and_host_filter(self, fabric, root_ca, trust_store, rng,
                                   https_server):
        mitm = _mitm_proxy(fabric, rng, upstream_trust=trust_store)
        victim_store = TrustStore()
        victim_store.add_root(root_ca.self_certificate())
        victim_store.add_root(mitm.ca_certificate())
        client = make_client(fabric, victim_store, rng,
                             proxy=(mitm.hostname, mitm.port))
        client.get("api.example.com", "/json")
        assert [exchange.host for exchange in mitm.intercepted] == [
            "api.example.com"]
        mitm.clear()
        assert mitm.intercepted == []


PROXIES = pytest.mark.parametrize("make_proxy", [
    lambda fabric, rng, trust, obs: _forward_proxy(fabric, rng, obs=obs),
    lambda fabric, rng, trust, obs: _mitm_proxy(fabric, rng, trust, obs=obs),
], ids=["forward", "mitm"])


class TestConnectTarget:
    """A malformed first request gets a 400, as from the HTTP server,
    not an exception out of ``roundtrip``."""

    def _first_response(self, fabric, rng, trust_store, make_proxy, data):
        obs = Observability()
        proxy = make_proxy(fabric, rng, trust_store, obs)
        asn = fabric.asn_db.eyeball_asns()[0]
        endpoint = Endpoint(address=fabric.asn_db.allocate(asn.number, rng))
        connection = fabric.connect(endpoint, proxy.hostname, proxy.port)
        response = HttpResponse.from_bytes(connection.roundtrip(data))
        assert obs.metrics.counter_total_by_label(
            "net.proxy.bad_requests", "proxy", proxy.hostname) == 1
        return response

    @PROXIES
    def test_superscript_port_is_a_protocol_error(self, fabric, rng,
                                                  trust_store, make_proxy):
        # "\xb2" passes ``str.isdigit`` but not ``int``: the port must be
        # ASCII digits.
        response = self._first_response(
            fabric, rng, trust_store, make_proxy,
            b"CONNECT api.example.com:\xb2 HTTP/1.1\r\n\r\n")
        assert response.status == 400
        assert b"bad CONNECT target" in response.body

    @PROXIES
    @pytest.mark.parametrize("data, reason", [
        (b"GET / HTTP/1.1\r\nHost: api.example.com\r\n\r\n",
         b"proxy expected CONNECT"),
        (b"CONNECT api.example.com:443 HTTP/1.1\r\n",
         b"missing header terminator"),
    ], ids=["not-connect", "unterminated-head"])
    def test_malformed_first_request_answers_400(
            self, fabric, rng, trust_store, make_proxy, data, reason):
        response = self._first_response(fabric, rng, trust_store,
                                        make_proxy, data)
        assert response.status == 400
        assert reason in response.body


class TestVpnExitPool:
    def test_exit_changes_apparent_country(self, fabric, root_ca, trust_store,
                                           rng, https_server):
        pool = VpnExitPool(fabric, rng, countries=("US", "DE", "GB"))
        for country in ("US", "DE", "GB"):
            client = make_client(fabric, trust_store, rng,
                                 proxy=pool.proxy_address(country))
            response = client.get("api.example.com", "/json")
            seen = response.json()["client"]
            from repro.net.ip import IPv4Address
            assert fabric.asn_db.country_of(IPv4Address.from_string(seen)) == country

    def test_country_without_datacenter_falls_back(self, fabric, rng):
        # India hosts no datacenter ASN in our database; the exit should
        # still come up (commercial VPNs route via the nearest DC).
        pool = VpnExitPool(fabric, rng, countries=("IN",))
        assert pool.proxy_address("IN")[0].startswith("exit-in.")

    def test_unknown_country_raises(self, fabric, rng):
        pool = VpnExitPool(fabric, rng, countries=("US",))
        with pytest.raises(KeyError):
            pool.exit_for("ZZ")

    def test_exit_country_of(self, fabric, rng):
        pool = VpnExitPool(fabric, rng, countries=("US", "GB"))
        hostname, _ = pool.proxy_address("GB")
        assert pool.exit_country_of(hostname) == "GB"
        assert pool.exit_country_of("unknown.example") is None

    def test_countries_listing(self, fabric, rng):
        pool = VpnExitPool(fabric, rng, countries=("US", "GB", "ES"))
        assert pool.countries() == ["ES", "GB", "US"]
