"""HTTP(S) client over the fabric, with optional proxy traversal.

``HttpClient`` is what every consumer in the repo uses: affiliate-app
SDKs fetching offer walls, the honey app posting telemetry, the Play
Store crawler, and the milker (which points its client at the mitm
proxy, exactly as the paper configures the measurement phone).

Resilience: an optional deterministic :class:`RetryPolicy` re-attempts
transient failures (backoff is charged in simulation op ticks, never
wall time), and an optional per-host :class:`CircuitBreaker` quarantines
hosts that keep failing, half-opening on the op clock.  Both default to
off, so un-wired call sites behave exactly as before.
"""

from __future__ import annotations

import random
from typing import Dict, Mapping, Optional, Tuple

from repro.checkpointed import Checkpointed
from repro.net.errors import (
    CertificatePinningError,
    CertificateVerificationError,
    CircuitOpenError,
    HttpProtocolError,
    NetError,
    TlsError,
    TransientNetworkError,
)
from repro.net.fabric import Endpoint, NetworkFabric
from repro.net.http import HttpRequest, HttpResponse
from repro.net.server import HTTPS_PORT
from repro.net.tls import TlsClientSession, TrustStore
from repro.obs import Observability

#: Response statuses worth retrying (rate limits and server-side faults).
RETRIABLE_STATUSES: Tuple[int, ...] = (429, 500, 502, 503, 504)

#: Errors that never get better on retry: the certificate chain or pin
#: will not change between attempts.
_PERMANENT_ERRORS = (CertificatePinningError, CertificateVerificationError)

#: Port of the cleartext transport (:meth:`HttpClient.request_plain`).
HTTP_PORT = 80


class RetryPolicy:
    """Deterministic retry schedule for one client.

    ``backoff_ops`` simulated operation ticks are charged per retry
    (multiplied by the attempt number) through the client's
    observability context — a deterministic stand-in for sleeping.
    """

    def __init__(self, max_attempts: int = 3, backoff_ops: int = 2) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if backoff_ops < 0:
            raise ValueError("backoff_ops cannot be negative")
        self.max_attempts = max_attempts
        self.backoff_ops = backoff_ops

    def retriable_error(self, error: Exception) -> bool:
        if isinstance(error, _PERMANENT_ERRORS) or isinstance(
                error, CircuitOpenError):
            return False
        return isinstance(error, NetError)

    def retriable_status(self, status: int) -> bool:
        return status in RETRIABLE_STATUSES


class CircuitBreaker(Checkpointed):
    """Per-host quarantine: open after consecutive failures, half-open
    after a recovery window on the op clock.

    The op clock is ``op_clock`` when given (e.g. the observability
    context's shared :class:`~repro.obs.OpCounter` value), otherwise an
    internal counter ticked once per guarded attempt — both are
    deterministic.
    """

    _STATE = ("_internal_ops", "_failures", "_opened_at", "_probing")

    def __init__(self, failure_threshold: int = 5, recovery_ops: int = 50,
                 op_clock=None, obs: Optional[Observability] = None) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if recovery_ops < 1:
            raise ValueError("recovery_ops must be at least 1")
        self.failure_threshold = failure_threshold
        self.recovery_ops = recovery_ops
        self._op_clock = op_clock
        self._internal_ops = 0
        self.obs = obs
        self._failures: Dict[str, int] = {}
        self._opened_at: Dict[str, int] = {}
        self._probing: Dict[str, bool] = {}

    def _now(self) -> int:
        if self._op_clock is not None:
            return self._op_clock()
        return self._internal_ops

    def _metrics(self):
        return self.obs.metrics if self.obs is not None else None

    def is_open(self, host: str) -> bool:
        return host in self._opened_at

    def allow(self, host: str) -> None:
        """Gate one attempt; raises :class:`CircuitOpenError` while the
        host is quarantined (and not yet due a half-open probe)."""
        self._internal_ops += 1
        opened_at = self._opened_at.get(host)
        if opened_at is None:
            return
        if self._now() - opened_at < self.recovery_ops:
            metrics = self._metrics()
            if metrics is not None:
                metrics.inc("net.client.circuit_rejected", host=host)
            raise CircuitOpenError(
                f"circuit open for {host} (quarantined after "
                f"{self.failure_threshold} consecutive failures)")
        # Recovery window elapsed: let exactly this attempt probe.
        self._probing[host] = True
        metrics = self._metrics()
        if metrics is not None:
            metrics.inc("net.client.circuit_half_open", host=host)

    def record_success(self, host: str) -> None:
        self._failures.pop(host, None)
        if self._opened_at.pop(host, None) is not None:
            metrics = self._metrics()
            if metrics is not None:
                metrics.inc("net.client.circuit_closed", host=host)
        self._probing.pop(host, None)

    def record_failure(self, host: str) -> None:
        if self._probing.pop(host, None):
            # Failed half-open probe: re-open for a fresh window.
            self._opened_at[host] = self._now()
            metrics = self._metrics()
            if metrics is not None:
                metrics.inc("net.client.circuit_reopened", host=host)
            return
        count = self._failures.get(host, 0) + 1
        self._failures[host] = count
        if count >= self.failure_threshold and host not in self._opened_at:
            self._opened_at[host] = self._now()
            metrics = self._metrics()
            if metrics is not None:
                metrics.inc("net.client.circuit_opened", host=host)


class _SessionEntry:
    __slots__ = ("day", "ticket", "enc_key", "mac_key", "uses")

    def __init__(self, day: int, ticket: bytes,
                 enc_key: bytes, mac_key: bytes) -> None:
        self.day = day
        self.ticket = ticket
        self.enc_key = enc_key
        self.mac_key = mac_key
        self.uses = 0


class TlsSessionCache:
    """Deterministic TLS session-ticket cache: one session per host.

    The first request to a host performs the full two-round-trip
    handshake and deposits the minted ticket plus the derived base
    record keys; later same-day requests to that host resume in a
    single flight.  Entries roll over with the simulation day and are
    dropped on connection faults, failed resumptions, and circuit
    opens, so chaos profiles still exercise fresh handshakes.

    Keys (never wall-clock state) come from the original handshake
    transcript.  Whoever owns a cache owns its sessions: clients that
    must not resume each other's sessions (two milk runs, two honey
    campaigns) get separate caches.
    """

    def __init__(self) -> None:
        self._entries: Dict[str, _SessionEntry] = {}

    def checkout(self, host: str,
                 day: int) -> Optional[Tuple[bytes, bytes, bytes, int]]:
        """Claim one resumption: ``(ticket, enc_key, mac_key, counter)``.

        A day mismatch evicts the entry (rollover invalidation) and
        returns ``None`` so the caller re-handshakes.
        """
        entry = self._entries.get(host)
        if entry is None:
            return None
        if entry.day != day:
            del self._entries[host]
            return None
        entry.uses += 1
        return (entry.ticket, entry.enc_key, entry.mac_key, entry.uses)

    def store(self, host: str, day: int, ticket: bytes,
              enc_key: bytes, mac_key: bytes) -> None:
        self._entries[host] = _SessionEntry(day, ticket, enc_key, mac_key)

    def invalidate(self, host: str) -> None:
        self._entries.pop(host, None)

    def __len__(self) -> int:
        return len(self._entries)


class HttpClient(Checkpointed):
    """One logical client device/process on the network.

    Parameters
    ----------
    fabric:
        The network to talk over.
    endpoint:
        Source endpoint (address) of this client.
    trust_store:
        CA roots this client trusts for HTTPS.
    rng:
        Randomness source for TLS nonces and keys.
    proxy:
        Optional ``(hostname, port)`` of an HTTP proxy.  When set, all
        HTTPS requests are tunnelled with ``CONNECT`` through the proxy
        (which may transparently man-in-the-middle them, if this client
        trusts the proxy's CA).
    pinned_fingerprints:
        Hostname -> key fingerprint pins (certificate pinning).
    obs:
        Observability context; defaults to the fabric's (which is a
        no-op unless the world wired a real one in).
    retry_policy:
        Optional :class:`RetryPolicy`; when set, transient errors and
        retriable statuses are re-attempted deterministically.
    breaker:
        Optional :class:`CircuitBreaker` shared across requests (and
        possibly across clients) to quarantine failing hosts.
    session_cache:
        Optional :class:`TlsSessionCache`; when set, repeat HTTPS
        requests to a host on the same ``today`` resume the TLS session
        (one round trip) instead of re-handshaking (two).  Without one,
        every request handshakes in full.

    A checkpoint holds the handshake RNG, the day requests are stamped
    with and (when wired) the breaker.  Clients sharing a breaker each
    write a copy, all taken at the same barrier, so loading them all is
    idempotent.
    """

    _STATE = ("rng", "today", "breaker")
    _TRANSIENT = {
        "session_cache": "each entry is stamped with the day it was "
                         "banked on and a request on any other day "
                         "evicts it, so no entry is used past the day "
                         "barrier a checkpoint is taken at",
    }

    def __init__(
        self,
        fabric: NetworkFabric,
        endpoint: Endpoint,
        trust_store: TrustStore,
        rng: random.Random,
        proxy: Optional[Tuple[str, int]] = None,
        pinned_fingerprints: Optional[Mapping[str, str]] = None,
        today: int = 0,
        obs: Optional[Observability] = None,
        retry_policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        session_cache: Optional[TlsSessionCache] = None,
    ) -> None:
        self.fabric = fabric
        self.endpoint = endpoint
        self.trust_store = trust_store
        self.rng = rng
        self.proxy = proxy
        self.pinned_fingerprints = dict(pinned_fingerprints or {})
        self.today = today
        self.obs = obs or fabric.obs
        self.retry_policy = retry_policy
        self.breaker = breaker
        self.session_cache = session_cache
        if breaker is not None and breaker.obs is None:
            breaker.obs = self.obs

    # -- public API ----------------------------------------------------------

    def get(self, host: str, path: str,
            params: Optional[Mapping[str, str]] = None) -> HttpResponse:
        request = HttpRequest.get(path, host, params=params)
        return self.request(host, request)

    def post_json(self, host: str, path: str, payload: object) -> HttpResponse:
        request = HttpRequest.post_json(path, host, payload)
        return self.request(host, request)

    def request(self, host: str, request: HttpRequest) -> HttpResponse:
        """Send one HTTPS request (possibly through the proxy)."""
        if self.proxy is not None:
            return self._resilient(host, request, HTTPS_PORT,
                                   self._send_via_proxy)
        return self._resilient(host, request, HTTPS_PORT, self._send_direct)

    def request_plain(self, host: str, request: HttpRequest) -> HttpResponse:
        """Send one cleartext HTTP request (no TLS)."""
        return self._resilient(host, request, HTTP_PORT, self._send_plain)

    # -- resilience ------------------------------------------------------------

    def _resilient(self, host: str, request: HttpRequest, port: int,
                   send) -> HttpResponse:
        """Run one send function under the retry policy and breaker."""
        policy = self.retry_policy
        attempts = policy.max_attempts if policy is not None else 1
        metrics = self.obs.metrics
        response: Optional[HttpResponse] = None
        for attempt in range(attempts):
            if self.breaker is not None:
                self.breaker.allow(host)
            if attempt:
                metrics.inc("net.client.retries", host=host)
                self._charge_backoff(attempt)
            try:
                response = send(host, port, request)
            except Exception as exc:  # noqa: BLE001 - resilience boundary
                metrics.inc("net.client.request_failures", host=host,
                            error=type(exc).__name__)
                if self.breaker is not None:
                    self._breaker_failure(host)
                last_attempt = attempt == attempts - 1
                if (policy is None or last_attempt
                        or not policy.retriable_error(exc)):
                    if (policy is not None and last_attempt
                            and policy.retriable_error(exc)):
                        metrics.inc("net.client.gave_up", host=host)
                    raise
                continue
            self._record(host, request, response)
            if policy is not None and policy.retriable_status(response.status):
                if attempt < attempts - 1:
                    metrics.inc("net.client.retried_statuses", host=host,
                                status=str(response.status))
                    if self.breaker is not None:
                        self._breaker_failure(host)
                    continue
                # Out of attempts on a retriable status: hand the caller
                # the response, but account the exhaustion as a failure.
                metrics.inc("net.client.gave_up", host=host)
                if self.breaker is not None:
                    self._breaker_failure(host)
                return response
            if self.breaker is not None:
                self.breaker.record_success(host)
            return response
        assert response is not None  # loop always returns or raises
        return response

    def _breaker_failure(self, host: str) -> None:
        """Record a breaker failure; an open quarantine flushes the
        host's resumption state so the eventual probe re-handshakes."""
        assert self.breaker is not None
        self.breaker.record_failure(host)
        if self.session_cache is not None and self.breaker.is_open(host):
            self.session_cache.invalidate(host)

    def _charge_backoff(self, attempt: int) -> None:
        """Deterministic backoff: burn op ticks instead of wall time."""
        policy = self.retry_policy
        assert policy is not None
        cost = policy.backoff_ops * attempt
        for _ in range(cost):
            self.obs.tick()
        if cost:
            self.obs.metrics.inc("net.client.backoff_ops", cost)

    # -- transports ------------------------------------------------------------

    def _send_direct(self, host: str, port: int,
                     request: HttpRequest) -> HttpResponse:
        try:
            connection = self.fabric.connect(self.endpoint, host, port)
        except NetError:
            if self.session_cache is not None:
                self.session_cache.invalidate(host)
            raise
        try:
            return self._secure_send(connection, host, request)
        finally:
            connection.close()

    def _send_plain(self, host: str, port: int,
                    request: HttpRequest) -> HttpResponse:
        connection = self.fabric.connect(self.endpoint, host, port)
        try:
            return HttpResponse.from_bytes(
                connection.roundtrip(request.to_bytes()))
        finally:
            connection.close()

    def _send_via_proxy(self, host: str, port: int,
                        request: HttpRequest) -> HttpResponse:
        proxy_host, proxy_port = self.proxy  # type: ignore[misc]
        connection = self.fabric.connect(self.endpoint, proxy_host, proxy_port)
        try:
            connect = HttpRequest(
                method="CONNECT",
                target=f"{host}:{port}",
                http_version="HTTP/1.1",
            )
            connect.headers.set("Host", f"{host}:{port}")
            reply = HttpResponse.from_bytes(connection.roundtrip(connect.to_bytes()))
            if not reply.ok:
                self.obs.metrics.inc("net.client.proxy_refusals", host=host)
                raise HttpProtocolError(
                    f"proxy refused CONNECT to {host}:{port}: {reply.status}")
            return self._secure_send(connection, host, request)
        finally:
            connection.close()

    def _secure_send(self, connection, host: str,
                     request: HttpRequest) -> HttpResponse:
        """Resume the TLS session when the cache holds a same-day ticket,
        otherwise handshake in full (and bank the ticket for next time)."""
        metrics = self.obs.metrics
        cache = self.session_cache
        claimed = (cache.checkout(host, self.today)
                   if cache is not None else None)
        if claimed is not None:
            assert cache is not None
            ticket, enc_key, mac_key, counter = claimed
            session = TlsClientSession.resume(
                connection, host, ticket, enc_key, mac_key, counter)
            try:
                response = HttpResponse.from_bytes(
                    session.send(request.to_bytes()))
            except NetError as exc:
                if isinstance(exc, TlsError):
                    metrics.inc("net.client.tls_resume_failures", host=host,
                                error=type(exc).__name__)
                cache.invalidate(host)
                raise
            metrics.inc_keyed("net.client.tls_resumptions",
                              self.fabric.host_keys[host])
            return response
        session = self._handshake(connection, host)
        if cache is not None:
            enc_key, mac_key = session.base_keys
            cache.store(host, self.today,
                        session.session_ticket, enc_key, mac_key)
        try:
            return HttpResponse.from_bytes(session.send(request.to_bytes()))
        except NetError:
            if cache is not None:
                cache.invalidate(host)
            raise

    # -- instrumentation -------------------------------------------------------

    def _handshake(self, connection, host: str) -> TlsClientSession:
        """Open the TLS session, counting handshakes and their failures."""
        metrics = self.obs.metrics
        metrics.inc_keyed("net.client.tls_handshakes",
                          self.fabric.host_keys[host])
        try:
            return TlsClientSession(
                connection, host, self.trust_store, self.rng,
                today=self.today, pinned_fingerprints=self.pinned_fingerprints)
        except CertificatePinningError:
            metrics.inc("net.client.pinning_failures", host=host)
            raise
        except TlsError as exc:
            metrics.inc("net.client.tls_failures", host=host,
                        error=type(exc).__name__)
            raise

    def _record(self, host: str, request: HttpRequest,
                response: HttpResponse) -> None:
        self.obs.metrics.inc_keyed(
            "net.client.requests",
            self.fabric.request_keys[host, request.method, response.status])


__all__ = [
    "CircuitBreaker",
    "CircuitOpenError",
    "HttpClient",
    "RETRIABLE_STATUSES",
    "RetryPolicy",
    "TlsError",
    "TlsSessionCache",
    "TransientNetworkError",
]
