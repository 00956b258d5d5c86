"""HTTPS servers over the fabric: routing behind a TLS server handler.

Route handlers receive the parsed :class:`HttpRequest` plus a
:class:`RequestContext` carrying the client's network address (servers in
this repo geo-target and fingerprint clients, as the real platforms do)
and return an :class:`HttpResponse`.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Pattern, Tuple

from repro.checkpointed import Checkpointed
from repro.net.chaos import FaultPlan
from repro.net.errors import HttpProtocolError
from repro.net.fabric import ConnectionHandler, ConnectionInfo, NetworkFabric
from repro.net.http import HttpRequest, HttpResponse
from repro.net.ip import IPv4Address
from repro.net.tls import ServerIdentity, TlsServerHandler
from repro.obs import NULL_OBS, LabelKeys, Observability

HTTPS_PORT = 443


@dataclass(frozen=True)
class RequestContext:
    """Network-layer facts a route handler may use."""

    client_address: IPv4Address
    server_host: str
    server_port: int
    path_params: Dict[str, str]


RouteHandler = Callable[[HttpRequest, RequestContext], HttpResponse]


class Router:
    """Method + path-pattern dispatch.

    Patterns may contain ``{name}`` segments which are captured into
    ``context.path_params``.
    """

    def __init__(self) -> None:
        self._routes: List[Tuple[str, Pattern[str], RouteHandler]] = []
        #: ``net.server.requests`` label keys, kept here because the
        #: router outlives every connection handler it serves.
        self.request_keys = LabelKeys("host", "method", "status")

    def add(self, method: str, pattern: str, handler: RouteHandler) -> None:
        regex = re.compile(
            "^" + re.sub(r"\{(\w+)\}", r"(?P<\1>[^/]+)", pattern) + "$")
        self._routes.append((method, regex, handler))

    def get(self, pattern: str, handler: RouteHandler) -> None:
        self.add("GET", pattern, handler)

    def post(self, pattern: str, handler: RouteHandler) -> None:
        self.add("POST", pattern, handler)

    def dispatch(self, request: HttpRequest, info: ConnectionInfo) -> HttpResponse:
        path = request.path
        seen_path = False
        for method, regex, handler in self._routes:
            match = regex.match(path)
            if not match:
                continue
            seen_path = True
            if method != request.method:
                continue
            context = RequestContext(
                client_address=info.client_address,
                server_host=info.server_host,
                server_port=info.server_port,
                path_params=match.groupdict(),
            )
            return handler(request, context)
        if seen_path:
            return HttpResponse.error(405)
        return HttpResponse.error(404)


class HttpConnectionHandler(ConnectionHandler):
    """Parses request bytes, dispatches, serialises the response."""

    def __init__(self, info: ConnectionInfo, router: Router,
                 obs: Optional[Observability] = None,
                 chaos: Optional[FaultPlan] = None) -> None:
        super().__init__(info)
        self._router = router
        self._obs = obs or NULL_OBS
        self._chaos = chaos

    def on_data(self, data: bytes) -> bytes:
        try:
            request = HttpRequest.from_bytes(data)
        except HttpProtocolError as exc:
            self._obs.metrics.inc("net.server.bad_requests",
                                  host=self.info.server_host)
            return HttpResponse.error(400, str(exc)).to_bytes()
        fault = (self._chaos.http_fault(self.info.server_host)
                 if self._chaos is not None else None)
        if fault is not None and fault.kind == "status":
            # Injected rate-limit / server error, before any routing.
            response = HttpResponse.error(
                fault.status, "injected fault (chaos)")
            self._obs.metrics.inc("net.server.chaos_errors",
                                  host=self.info.server_host,
                                  status=str(fault.status))
            self._record(request, response)
            return response.to_bytes()
        try:
            response = self._router.dispatch(request, self.info)
        except Exception as exc:  # noqa: BLE001 - server boundary
            response = HttpResponse.error(500, f"{type(exc).__name__}: {exc}")
        if fault is not None and fault.kind == "corrupt" and response.body:
            # Garbage API output: valid HTTP framing, malformed payload.
            response.body = FaultPlan.corrupt_json_body(response.body)
            self._obs.metrics.inc("net.server.chaos_corrupted",
                                  host=self.info.server_host)
        self._record(request, response)
        return response.to_bytes()

    def _record(self, request: HttpRequest, response: HttpResponse) -> None:
        self._obs.metrics.inc_keyed(
            "net.server.requests", self._router.request_keys[
                self.info.server_host, request.method, response.status])


class HttpsServer(Checkpointed):
    """An HTTPS service: HTTP routing behind a TLS server handler."""

    _STATE = ("rng",)
    _TRANSIENT = {
        "tickets": "only the client cache that banked a ticket presents "
                   "it, and no cache holds a usable entry past a "
                   "checkpoint barrier (wild's caches drop an earlier "
                   "day's entries; each honey campaign has its own cache)",
    }

    def __init__(
        self,
        fabric: NetworkFabric,
        hostname: str,
        address: IPv4Address,
        identity: ServerIdentity,
        rng: random.Random,
        obs: Optional[Observability] = None,
    ) -> None:
        self.fabric = fabric
        self.hostname = hostname
        self.identity = identity
        self.router = Router()
        self.obs = obs or fabric.obs
        # Kept for checkpointing: every connection handler shares this
        # RNG, so its position is part of the server's resumable state.
        self.rng = rng
        # Session tickets this server has minted (ticket -> base record
        # keys); lets clients resume and skip both handshake round trips
        # on repeat visits.
        self.tickets: Dict[bytes, Tuple[bytes, bytes]] = {}
        fabric.register_host(hostname, address)
        fabric.listen(
            hostname,
            HTTPS_PORT,
            lambda info: TlsServerHandler(
                info,
                identity,
                lambda inner_info: HttpConnectionHandler(inner_info, self.router,
                                                         self.obs,
                                                         chaos=fabric.chaos),
                rng,
                self.tickets,
            ),
        )
