"""TLS session resumption: cache hits, invalidation, and determinism.

A client wired with a :class:`TlsSessionCache` full-handshakes once per
``(host, day)`` and resumes afterwards; the cache must flush on day
rollover, connection faults, breaker opens, and unknown tickets, two
caches never share a session — and turning resumption on must never
change HTTP payload bytes.
"""

from __future__ import annotations

import random

import pytest

from repro.net.chaos import ChaosScenario, FaultPlan
from repro.net.client import (CircuitBreaker, HttpClient, RetryPolicy,
                              TlsSessionCache)
from repro.net.errors import NetError, TlsError
from repro.net.fabric import Endpoint, NetworkFabric, PacketCapture
from repro.net.server import HttpsServer
from repro.obs import Observability

from tests.conftest import make_client, make_https_server

HOST = "api.example.com"


def make_caching_client(fabric, trust_store, rng, cache, today=0,
                        proxy=None, obs=None, retry_policy=None,
                        breaker=None):
    client = make_client(fabric, trust_store, rng, proxy=proxy)
    return HttpClient(fabric, client.endpoint, trust_store, client.rng,
                      proxy=client.proxy, today=today, obs=obs,
                      retry_policy=retry_policy, breaker=breaker,
                      session_cache=cache)


class TestSessionResumption:
    def setup_method(self):
        self.rng = random.Random(1234)
        self.obs = Observability()
        self.fabric = NetworkFabric(obs=self.obs)
        from repro.net.tls import CertificateAuthority, TrustStore
        self.root_ca = CertificateAuthority("Example Root CA", self.rng)
        self.trust = TrustStore()
        self.trust.add_root(self.root_ca.self_certificate())
        self.server = make_https_server(self.fabric, self.root_ca, self.rng)
        self.cache = TlsSessionCache()

    def counter(self, name):
        return self.obs.metrics.counter_total(name)

    def client(self, today=0, **kwargs):
        return make_caching_client(self.fabric, self.trust, self.rng,
                                   self.cache, today=today, obs=self.obs,
                                   **kwargs)

    def test_second_request_resumes(self):
        client = self.client()
        first = client.get(HOST, "/json", params={"q": "1"})
        second = client.get(HOST, "/json", params={"q": "1"})
        assert first.status == 200
        assert first.body == second.body
        assert self.counter("net.client.tls_handshakes") == 1
        assert self.counter("net.client.tls_resumptions") == 1
        assert len(self.cache) == 1

    def test_counters_partition_requests(self):
        client = self.client()
        total = 7
        for _ in range(total):
            client.get(HOST, "/json")
        assert (self.counter("net.client.tls_handshakes")
                + self.counter("net.client.tls_resumptions")) == total
        assert self.counter("net.client.tls_handshakes") == 1

    def test_resumption_skips_handshake_round_trips(self):
        client = self.client()
        capture = PacketCapture(self.fabric)
        client.get(HOST, "/json")
        full_frames = len(capture.frames)
        capture.frames.clear()
        client.get(HOST, "/json")
        resumed_frames = len(capture.frames)
        capture.detach()
        # Full handshake: hello + key-exchange + request = 3 round trips
        # (6 frames); resumption folds everything into one (2 frames).
        assert full_frames == 6
        assert resumed_frames == 2

    def test_no_cache_means_no_resumption(self):
        client = make_client(self.fabric, self.trust, self.rng)
        client.obs = self.obs
        client.get(HOST, "/json")
        client.get(HOST, "/json")
        assert self.counter("net.client.tls_handshakes") == 2
        assert self.counter("net.client.tls_resumptions") == 0

    def test_day_rollover_invalidates(self):
        today_client = self.client(today=0)
        today_client.get(HOST, "/json")
        assert len(self.cache) == 1
        tomorrow_client = self.client(today=1)
        tomorrow_client.get(HOST, "/json")
        # The stale day-0 ticket was evicted and replaced by a day-1
        # entry, so the first day-1 request re-handshakes...
        assert self.counter("net.client.tls_handshakes") == 2
        assert self.counter("net.client.tls_resumptions") == 0
        # ...and subsequent day-1 traffic resumes again.
        tomorrow_client.get(HOST, "/json")
        assert self.counter("net.client.tls_resumptions") == 1

    def test_separate_caches_never_share_a_session(self):
        first = self.client()
        first.get(HOST, "/json")
        first.get(HOST, "/json")
        other_cache = TlsSessionCache()
        second = make_caching_client(self.fabric, self.trust, self.rng,
                                     other_cache, obs=self.obs)
        second.get(HOST, "/json")
        # Same host, same day: the second cache still opens with a full
        # handshake and banks a session of its own.
        assert self.counter("net.client.tls_handshakes") == 2
        assert self.counter("net.client.tls_resumptions") == 1
        assert len(self.cache) == len(other_cache) == 1
        assert (self.cache.checkout(HOST, 0)[0]
                != other_cache.checkout(HOST, 0)[0])

    def test_unknown_ticket_fails_resume_and_invalidates(self):
        client = self.client()
        client.get(HOST, "/json")
        # The server loses its ticket table (think: restart).  The
        # client's cached ticket is now garbage.
        self.server.tickets.clear()
        with pytest.raises(TlsError):
            client.get(HOST, "/json")
        assert self.counter("net.client.tls_resume_failures") == 1
        assert len(self.cache) == 0
        # Recovery: the next request falls back to a full handshake.
        response = client.get(HOST, "/json")
        assert response.status == 200
        assert self.counter("net.client.tls_handshakes") == 2

    def test_retry_policy_recovers_from_lost_ticket(self):
        client = self.client(retry_policy=RetryPolicy(max_attempts=3,
                                                      backoff_ops=1))
        client.get(HOST, "/json")
        self.server.tickets.clear()
        # The failed resume is retriable; the retry re-handshakes and
        # the caller never sees the failure.
        response = client.get(HOST, "/json")
        assert response.status == 200
        assert self.counter("net.client.tls_resume_failures") == 1
        assert self.counter("net.client.tls_handshakes") == 2

    def test_connect_fault_invalidates_host(self):
        client = self.client()
        client.get(HOST, "/json")
        assert len(self.cache) == 1
        storm = ChaosScenario(name="storm", seed=99,
                              connect_failure_rate=1.0)
        self.fabric.set_chaos(FaultPlan(storm, clock=lambda: 0))
        with pytest.raises(NetError):
            client.get(HOST, "/json")
        assert len(self.cache) == 0
        self.fabric.set_chaos(FaultPlan(ChaosScenario.off(), clock=lambda: 0))
        client.get(HOST, "/json")
        assert self.counter("net.client.tls_handshakes") == 2

    def test_breaker_open_flushes_host_sessions(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_ops=1000,
                                 obs=self.obs)
        client = self.client(breaker=breaker,
                             retry_policy=RetryPolicy(max_attempts=1,
                                                      backoff_ops=1))
        client.get(HOST, "/json")
        assert len(self.cache) == 1
        storm = ChaosScenario(name="storm", seed=7,
                              connect_failure_rate=1.0)
        self.fabric.set_chaos(FaultPlan(storm, clock=lambda: 0))
        with pytest.raises(NetError):
            client.get(HOST, "/json")
        assert breaker.is_open(HOST)
        assert len(self.cache) == 0


class TestResumptionByteIdentity:
    """Same seed, resumption on vs off: HTTP payloads are identical."""

    def _run(self, use_cache):
        rng = random.Random(2019)
        fabric = NetworkFabric()
        from repro.net.tls import CertificateAuthority, TrustStore
        root_ca = CertificateAuthority("Example Root CA", rng)
        trust = TrustStore()
        trust.add_root(root_ca.self_certificate())
        make_https_server(fabric, root_ca, rng)
        cache = TlsSessionCache() if use_cache else None
        base = make_client(fabric, trust, rng)
        client = HttpClient(fabric, base.endpoint, trust, base.rng,
                            session_cache=cache)
        bodies = []
        for index in range(5):
            response = client.post_json(HOST, "/echo",
                                        {"n": index, "msg": "hello"})
            bodies.append(response.body)
            bodies.append(response.to_bytes())
        return bodies

    def test_payloads_identical_on_and_off(self):
        assert self._run(use_cache=True) == self._run(use_cache=False)


class TestTicketMinting:
    def test_server_mints_one_ticket_per_full_handshake(
            self, fabric, root_ca, trust_store, rng):
        # Every server mints a ticket on a full handshake: the server
        # files it in its ticket table and the client banks it.
        server = make_https_server(fabric, root_ca, rng)
        cache = TlsSessionCache()
        client = make_caching_client(fabric, trust_store, rng, cache)
        client.get(HOST, "/json")
        assert len(server.tickets) == 1
        assert len(cache) == 1

    def test_proxied_requests_resume_both_legs(self, fabric, root_ca,
                                               trust_store, rng):
        from repro.net.proxy import MitmProxy
        from repro.net.tls import TrustStore
        make_https_server(fabric, root_ca, rng)
        address = fabric.asn_db.allocate(14061, rng)
        proxy = MitmProxy(fabric, "mitm.lab.example", address, rng,
                          upstream_trust=trust_store)
        device_trust = TrustStore()
        device_trust.add_root(root_ca.self_certificate())
        device_trust.add_root(proxy.ca_certificate())
        cache = TlsSessionCache()
        client = make_caching_client(fabric, device_trust, rng, cache,
                                     proxy=(proxy.hostname, proxy.port))
        first = client.get(HOST, "/json")
        second = client.get(HOST, "/json")
        assert first.status == second.status == 200
        # The impersonation handler mints tickets off the proxy-wide
        # ticket table, so the phone-side client banks a session for the
        # logical host; the proxy's upstream leg caches its own.
        assert len(cache) == 1
        assert len(proxy.tickets) >= 1
        assert len(proxy.upstream_sessions) == 1


def _store(cache, host, day=0, ticket=b"t" * 16):
    cache.store(host, day, ticket, b"e" * 32, b"m" * 32)


class TestTlsSessionCacheUnit:
    def test_checkout_counts_uses(self):
        cache = TlsSessionCache()
        _store(cache, "h")
        first = cache.checkout("h", 0)
        second = cache.checkout("h", 0)
        assert first[3] == 1
        assert second[3] == 2

    def test_checkout_misses(self):
        cache = TlsSessionCache()
        assert cache.checkout("h", 0) is None
        _store(cache, "h")
        assert cache.checkout("h", 1) is None     # day rolled over
        assert len(cache) == 0                    # ...and evicted
        _store(cache, "h")
        assert cache.checkout("other", 0) is None

    def test_one_session_per_host(self):
        cache = TlsSessionCache()
        _store(cache, "h", ticket=b"a" * 16)
        cache.checkout("h", 0)
        _store(cache, "h", ticket=b"b" * 16)
        assert len(cache) == 1
        ticket, _, _, uses = cache.checkout("h", 0)
        assert (ticket, uses) == (b"b" * 16, 1)

    def test_invalidate_drops_only_that_host(self):
        cache = TlsSessionCache()
        _store(cache, "h")
        _store(cache, "other")
        cache.invalidate("h")
        cache.invalidate("never-stored")
        assert len(cache) == 1
        assert cache.checkout("h", 0) is None
        assert cache.checkout("other", 0) is not None
