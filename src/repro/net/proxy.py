"""Forward and man-in-the-middle HTTP proxies.

``ForwardProxy`` blindly relays tunnelled bytes (this is what a VPN/geo
exit does: the upstream server sees the proxy's source address, which is
how the paper's milkers appeared to be in eight different countries).

``MitmProxy`` terminates the client's TLS with a certificate it mints on
the fly (signed by its own CA), opens its own TLS session to the real
server, and records every decrypted request/response pair.  This is the
in-repo equivalent of the paper's mitmproxy deployment: it only works
against clients that installed the proxy's CA root and do not pin.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.checkpointed import Checkpointed
from repro.net.client import TlsSessionCache
from repro.net.errors import HttpProtocolError, NetError
from repro.net.fabric import (
    Connection,
    ConnectionHandler,
    ConnectionInfo,
    Endpoint,
    NetworkFabric,
)
from repro.net.http import HttpRequest, HttpResponse, ascii_digits
from repro.net.ip import IPv4Address
from repro.net.tls import (
    CertificateAuthority,
    ServerIdentity,
    TlsClientSession,
    TlsServerHandler,
    TrustStore,
    issue_server_identity,
)
from repro.obs import LabelKeys, Observability, label_key

#: Port every proxy listens on.
PROXY_PORT = 8080


def _parse_connect_target(request: HttpRequest) -> Tuple[str, int]:
    if request.method != "CONNECT":
        raise HttpProtocolError("proxy expected CONNECT")
    host, _, port_text = request.target.partition(":")
    if not host or not ascii_digits(port_text):
        raise HttpProtocolError(f"bad CONNECT target {request.target!r}")
    return host, int(port_text)


def _bad_request(obs: Observability, info: ConnectionInfo,
                 exc: HttpProtocolError) -> bytes:
    """Answer a malformed first request with 400, as the HTTP server does."""
    obs.metrics.inc("net.proxy.bad_requests", proxy=info.server_host)
    return HttpResponse.error(400, str(exc)).to_bytes()


class _TunnelHandler(ConnectionHandler):
    """After CONNECT, relay every round trip verbatim to the upstream."""

    def __init__(self, info: ConnectionInfo, fabric: NetworkFabric,
                 proxy_endpoint: Endpoint,
                 obs: Optional[Observability] = None) -> None:
        super().__init__(info)
        self._fabric = fabric
        self._proxy_endpoint = proxy_endpoint
        self._obs = obs or fabric.obs
        self._upstream: Optional[Connection] = None

    def on_data(self, data: bytes) -> bytes:
        if self._upstream is None:
            try:
                host, port = _parse_connect_target(
                    HttpRequest.from_bytes(data))
            except HttpProtocolError as exc:
                return _bad_request(self._obs, self.info, exc)
            try:
                self._upstream = self._fabric.connect(
                    self._proxy_endpoint, host, port)
            except NetError as exc:
                # A real CONNECT proxy answers 502 when the upstream is
                # unreachable; clients then see a refusal they can retry
                # or degrade on, not a raw exception from inside the
                # relay.
                self._obs.metrics.inc("net.proxy.connect_failures",
                                      host=host, error=type(exc).__name__)
                return HttpResponse.error(
                    502, f"upstream unreachable: {exc}").to_bytes()
            return HttpResponse(status=200, reason="Connection Established").to_bytes()
        return self._upstream.roundtrip(data)

    def on_close(self) -> None:
        if self._upstream is not None:
            self._upstream.close()


class ForwardProxy:
    """A relay-only CONNECT proxy bound on the fabric."""

    def __init__(self, fabric: NetworkFabric, hostname: str,
                 address: IPv4Address,
                 obs: Optional[Observability] = None) -> None:
        self.fabric = fabric
        self.hostname = hostname
        self.port = PROXY_PORT
        self.endpoint = Endpoint(address=address, hostname=hostname)
        self.obs = obs or fabric.obs
        tunnel_key = label_key({"proxy": hostname})

        def factory(info: ConnectionInfo) -> ConnectionHandler:
            self.obs.metrics.inc_keyed("net.proxy.tunnels", tunnel_key)
            return _TunnelHandler(info, fabric, self.endpoint, obs=self.obs)

        fabric.register_host(hostname, address)
        fabric.listen(hostname, PROXY_PORT, factory)


@dataclass(frozen=True)
class InterceptedExchange:
    """One decrypted request/response pair recorded by the mitm proxy.

    ``day``, ``seq``, and ``span_id`` come from the observability layer
    when the proxy has one: the simulation day of the exchange, the
    monotonic operation-counter tick, and the id of the trace span that
    was active when the exchange was logged (e.g. the milker's
    ``milk.run``).  They default to sentinel values when the proxy runs
    without observability.
    """

    host: str
    port: int
    client_address: IPv4Address
    request: HttpRequest
    response: HttpResponse
    day: int = -1
    seq: int = 0
    span_id: Optional[str] = None


class _MitmInnerHandler(ConnectionHandler):
    """Plaintext side of the mitm: log and forward each HTTP exchange."""

    def __init__(self, info: ConnectionInfo, upstream: TlsClientSession,
                 host: str, port: int, proxy: "MitmProxy") -> None:
        super().__init__(info)
        self._upstream = upstream
        self._host = host
        self._port = port
        self._proxy = proxy

    def on_data(self, data: bytes) -> bytes:
        request = HttpRequest.from_bytes(data)
        try:
            response_bytes = self._upstream.send(data)
        except NetError:
            # Mirror the HTTP client's cache semantics: any failure on
            # the upstream leg drops the host's resumption state so the
            # retry (a fresh connection) re-handshakes in full.
            self._proxy.upstream_sessions.invalidate(self._host)
            raise
        response = HttpResponse.from_bytes(response_bytes)
        self._proxy._log_exchange(InterceptedExchange(
            host=self._host,
            port=self._port,
            client_address=self.info.client_address,
            request=request,
            response=response,
            day=self._proxy._today(),
            seq=self._proxy.obs.tick(),
            span_id=self._proxy.obs.tracer.current_span_id,
        ))
        return response_bytes

    def on_close(self) -> None:
        self._upstream.close()


class _MitmHandler(ConnectionHandler):
    """Per-connection state machine: CONNECT, then impersonate via TLS."""

    def __init__(self, info: ConnectionInfo, proxy: "MitmProxy") -> None:
        super().__init__(info)
        self._proxy = proxy
        self._tls: Optional[TlsServerHandler] = None

    def on_data(self, data: bytes) -> bytes:
        if self._tls is None:
            try:
                host, port = _parse_connect_target(
                    HttpRequest.from_bytes(data))
            except HttpProtocolError as exc:
                return _bad_request(self._proxy.obs, self.info, exc)
            try:
                self._tls = self._proxy._build_impersonator(self.info, host, port)
            except NetError as exc:
                # Upstream (or the VPN exit on the way there) is down:
                # answer the CONNECT with 502 so the measurement client
                # records a proxy refusal instead of crashing mid-fuzz.
                self._proxy.obs.metrics.inc("net.proxy.intercept_failures",
                                            host=host,
                                            error=type(exc).__name__)
                return HttpResponse.error(
                    502, f"mitm upstream unreachable: {exc}").to_bytes()
            return HttpResponse(status=200, reason="Connection Established").to_bytes()
        return self._tls.on_data(data)

    def on_close(self) -> None:
        if self._tls is not None:
            self._tls.on_close()


class MitmProxy(Checkpointed):
    """TLS-interception proxy with its own CA, as in the paper's setup.

    Install :meth:`ca_certificate` into a client's trust store to let the
    proxy decrypt that client's traffic; read :attr:`intercepted` to see
    the decrypted offer-wall exchanges.
    """

    _STATE = ("_rng", "ca", "_identity_cache")
    #: The minted impersonation identities, by host.
    _identity_cache: Dict[str, ServerIdentity]
    _TRANSIENT = {
        "intercepted": "every milk run clears it before driving traffic, "
                       "so at a day barrier it is dead state",
        "upstream_proxy": "every milk run points it at its VPN exit "
                          "before driving traffic",
        "upstream_sessions": "keyed by the clock day, which a "
                             "checkpoint's barrier has just advanced",
        "tickets": "presented only by the milk run's own phone cache, "
                   "which dies with the run",
    }

    def __init__(
        self,
        fabric: NetworkFabric,
        hostname: str,
        address: IPv4Address,
        rng: random.Random,
        upstream_trust: Optional[TrustStore] = None,
        obs: Optional[Observability] = None,
        current_day: Optional[Callable[[], int]] = None,
    ) -> None:
        self.fabric = fabric
        self.hostname = hostname
        self.port = PROXY_PORT
        self.endpoint = Endpoint(address=address, hostname=hostname)
        self.obs = obs or fabric.obs
        self._current_day = current_day
        self._rng = rng
        self.ca = CertificateAuthority(f"{hostname} mitm CA", rng)
        self._identity_cache = {}
        self.upstream_trust = upstream_trust or TrustStore()
        #: When set, outbound connections tunnel through this forward
        #: proxy (e.g. a VPN country exit), so origin servers see the
        #: exit's address -- how the paper milked from eight countries.
        #: The milker sets it per country.
        self.upstream_proxy: Optional[Tuple[str, int]] = None
        #: Ticket table for the client-facing leg (ticket -> base record
        #: keys): devices that carry a
        #: :class:`~repro.net.client.TlsSessionCache` resume against
        #: the minted impersonation identities in one flight.
        self.tickets: Dict[bytes, Tuple[bytes, bytes]] = {}
        #: Ticket cache for the upstream leg: one full handshake per
        #: (host, day), every later intercepted connection that day
        #: resumes.  The proxy is per-cell state and its cell's runs
        #: execute in a fixed order, so the reuse order is deterministic.
        self.upstream_sessions = TlsSessionCache()
        self.intercepted: List[InterceptedExchange] = []
        self._host_keys = LabelKeys("host")
        self._exchange_keys = LabelKeys("host", "status")
        fabric.register_host(hostname, address)
        fabric.listen(hostname, PROXY_PORT,
                      lambda info: _MitmHandler(info, self))

    def ca_certificate(self):
        """The self-signed root to install on instrumented devices."""
        return self.ca.self_certificate()

    def clear(self) -> None:
        self.intercepted.clear()

    # -- internals ----------------------------------------------------------

    def _today(self) -> int:
        return self._current_day() if self._current_day is not None else -1

    def _log_exchange(self, exchange: InterceptedExchange) -> None:
        self.obs.metrics.inc_keyed(
            "net.proxy.intercepted",
            self._exchange_keys[exchange.host, exchange.response.status])
        self.intercepted.append(exchange)

    def _connect_upstream(self, host: str, port: int) -> Connection:
        if self.upstream_proxy is None:
            return self.fabric.connect(self.endpoint, host, port)
        proxy_host, proxy_port = self.upstream_proxy
        connection = self.fabric.connect(self.endpoint, proxy_host, proxy_port)
        connect = HttpRequest(method="CONNECT", target=f"{host}:{port}")
        connect.headers.set("Host", f"{host}:{port}")
        reply = HttpResponse.from_bytes(connection.roundtrip(connect.to_bytes()))
        if not reply.ok:
            connection.close()
            self.obs.metrics.inc("net.proxy.upstream_refusals", host=host)
            raise HttpProtocolError(
                f"upstream proxy refused CONNECT to {host}:{port}")
        return connection

    def _build_impersonator(self, info: ConnectionInfo, host: str,
                            port: int) -> TlsServerHandler:
        self.obs.metrics.inc_keyed("net.proxy.intercept_sessions",
                                   self._host_keys[host])
        upstream_connection = self._connect_upstream(host, port)
        upstream_session = self._open_upstream(upstream_connection, host)
        identity = self._identity_cache.get(host)
        if identity is None:
            identity = issue_server_identity(self.ca, host, self._rng)
            self._identity_cache[host] = identity
            self.obs.metrics.inc("net.proxy.identities_minted", host=host)
        return TlsServerHandler(
            info,
            identity,
            lambda inner_info: _MitmInnerHandler(
                inner_info, upstream_session, host, port, self),
            self._rng,
            self.tickets,
        )

    def _open_upstream(self, connection: Connection,
                       host: str) -> TlsClientSession:
        """TLS to the real server: resume with a banked same-day ticket
        when there is one, otherwise handshake in full and bank it."""
        day = self._today()
        claimed = self.upstream_sessions.checkout(host, day)
        if claimed is not None:
            ticket, enc_key, mac_key, counter = claimed
            self.obs.metrics.inc_keyed("net.proxy.upstream_resumptions",
                                       self._host_keys[host])
            return TlsClientSession.resume(
                connection, host, ticket, enc_key, mac_key, counter)
        session = TlsClientSession(
            connection, host, self.upstream_trust, self._rng)
        enc_key, mac_key = session.base_keys
        self.upstream_sessions.store(
            host, day, session.session_ticket, enc_key, mac_key)
        return session


__all__ = ["ForwardProxy", "InterceptedExchange", "MitmProxy", "NetError"]
