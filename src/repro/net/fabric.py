"""In-process network fabric: endpoints, listeners, and connections.

The fabric is a synchronous message-passing network.  A *connection* is a
sequence of client-driven round trips: the client sends a byte string and
receives the server's byte string reply.  This is enough to carry both a
multi-round TLS handshake and one-shot HTTP exchanges, while remaining
fully deterministic (no threads, no event loop).

The fabric also provides the two cross-cutting facilities the repo's
tests and experiments need: a *wire tap* that observes every frame (used
to verify that offer-wall traffic really is encrypted on the wire), and
*fault injection* per (host, port) (used by failure-injection tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.net.chaos import FaultPlan
from repro.net.errors import ConnectionRefusedFabricError, NetError
from repro.net.ip import AsnDatabase, IPv4Address
from repro.obs import NULL_OBS, LabelKeys, Observability, label_key


@dataclass(frozen=True)
class Endpoint:
    """A host on the fabric: its address and optional DNS name."""

    address: IPv4Address
    hostname: Optional[str] = None

    def __str__(self) -> str:
        return self.hostname or str(self.address)


@dataclass(frozen=True)
class ConnectionInfo:
    """Metadata a server sees about an inbound connection."""

    client_address: IPv4Address
    server_host: str
    server_port: int


class ConnectionHandler:
    """Server-side per-connection state machine.

    Subclasses override :meth:`on_data`; each call corresponds to one
    client round trip and must return the bytes to send back.
    """

    def __init__(self, info: ConnectionInfo) -> None:
        self.info = info

    def on_data(self, data: bytes) -> bytes:
        raise NotImplementedError

    def on_close(self) -> None:
        """Called once when the client closes the connection."""


HandlerFactory = Callable[[ConnectionInfo], ConnectionHandler]
TapCallback = Callable[["Frame"], None]

#: Pre-computed label keys for the two per-frame counters (see
#: ``MetricsRegistry.inc_keyed``).
_REQUEST_LABELS = label_key({"direction": "request"})
_RESPONSE_LABELS = label_key({"direction": "response"})


@dataclass(frozen=True)
class Frame:
    """One observed wire frame (for taps / packet capture)."""

    source: IPv4Address
    destination_host: str
    destination_port: int
    direction: str  # "request" or "response"
    payload: bytes


class Connection:
    """Client handle for an open fabric connection."""

    def __init__(self, fabric: "NetworkFabric", handler: ConnectionHandler,
                 info: ConnectionInfo) -> None:
        self._fabric = fabric
        self._handler = handler
        self._info = info
        self._closed = False

    @property
    def info(self) -> ConnectionInfo:
        return self._info

    def roundtrip(self, data: bytes) -> bytes:
        if self._closed:
            raise NetError("connection is closed")
        info = self._info
        self._fabric._observe_wire(
            info.client_address, info.server_host, info.server_port,
            "request", data)
        reply = self._handler.on_data(data)
        if not isinstance(reply, bytes):
            raise NetError(f"handler returned non-bytes: {type(reply).__name__}")
        # The fabric may corrupt response frames under chaos; what the
        # taps observe is what the client actually receives.
        return self._fabric._observe_wire(
            info.client_address, info.server_host, info.server_port,
            "response", reply)

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._handler.on_close()

    def __enter__(self) -> "Connection":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class NetworkFabric:
    """The in-process network: DNS, listeners, taps, and fault injection."""

    def __init__(self, asn_db: Optional[AsnDatabase] = None,
                 obs: Optional[Observability] = None) -> None:
        self.asn_db = asn_db or AsnDatabase()
        #: Observability context; components built on this fabric
        #: (servers, clients, proxies) inherit it unless handed their own.
        self.obs = obs or NULL_OBS
        self._dns: Dict[str, IPv4Address] = {}
        self._listeners: Dict[Tuple[str, int], HandlerFactory] = {}
        self._taps: List[TapCallback] = []
        #: The chaos fault plan.  Always present (inert by default);
        #: ``inject_fault`` and the chaos CLI both schedule through it.
        self.chaos: FaultPlan = FaultPlan()
        #: Label keys for the per-request counters of this fabric's
        #: connections and clients.  They live here because the fabric
        #: outlives every client (one per milk run or honey device).
        self.host_keys = LabelKeys("host")
        self.request_keys = LabelKeys("host", "method", "status")

    # -- DNS ---------------------------------------------------------------

    def register_host(self, hostname: str, address: IPv4Address) -> None:
        if hostname in self._dns:
            raise ValueError(f"hostname already registered: {hostname!r}")
        self._dns[hostname] = address

    def resolve(self, hostname: str) -> IPv4Address:
        try:
            return self._dns[hostname]
        except KeyError:
            raise ConnectionRefusedFabricError(f"unknown host {hostname!r}") from None

    # -- listeners ---------------------------------------------------------

    def listen(self, hostname: str, port: int, factory: HandlerFactory) -> None:
        """Register a server at (hostname, port).

        The hostname must already be in DNS (call :meth:`register_host`),
        mirroring the fact that a real service needs both a record and a
        bound socket.
        """
        if hostname not in self._dns:
            raise ValueError(f"listen before DNS registration: {hostname!r}")
        key = (hostname, port)
        if key in self._listeners:
            raise ValueError(f"already listening on {hostname}:{port}")
        self._listeners[key] = factory

    def is_listening(self, hostname: str, port: int) -> bool:
        return (hostname, port) in self._listeners

    # -- connections ---------------------------------------------------------

    def connect(self, source: Endpoint, hostname: str, port: int) -> Connection:
        fault = self.chaos.connect_fault(hostname, port)
        if fault is not None:
            self.obs.metrics.inc("net.fabric.faults_raised", host=hostname,
                                 error=type(fault).__name__)
            raise fault
        self.resolve(hostname)  # raises for unknown hosts
        factory = self._listeners.get((hostname, port))
        if factory is None:
            self.obs.metrics.inc("net.fabric.refused", host=hostname)
            raise ConnectionRefusedFabricError(f"connection refused: {hostname}:{port}")
        info = ConnectionInfo(
            client_address=source.address,
            server_host=hostname,
            server_port=port,
        )
        self.obs.metrics.inc_keyed("net.fabric.connections",
                                   self.host_keys[hostname])
        handler = factory(info)
        return Connection(self, handler, info)

    # -- observability -------------------------------------------------------

    def add_tap(self, callback: TapCallback) -> None:
        self._taps.append(callback)

    def remove_tap(self, callback: TapCallback) -> None:
        self._taps = [tap for tap in self._taps if tap is not callback]

    def _observe_wire(self, source: IPv4Address, host: str, port: int,
                      direction: str, payload: bytes) -> bytes:
        """Record one wire frame; returns the payload actually delivered.

        Response frames consult the chaos plan, which may hand back a
        truncated copy — the taps then observe the corrupted frame, as a
        real packet capture would.  The :class:`Frame` object itself is
        only materialised when a tap is attached; the metrics path uses
        pre-computed label keys (two counters for every frame on the
        wire make this the hottest recording site in the repo).
        """
        if direction == "response":
            corrupted = self.chaos.corrupt_frame(host, payload)
            if corrupted is not None:
                self.obs.metrics.inc("net.fabric.frames_corrupted", host=host)
                payload = corrupted
            labels = _RESPONSE_LABELS
        else:
            labels = _REQUEST_LABELS
        metrics = self.obs.metrics
        metrics.inc_keyed("net.fabric.frames", labels)
        metrics.inc_keyed("net.fabric.bytes", labels, len(payload))
        if self._taps:
            frame = Frame(source=source, destination_host=host,
                          destination_port=port, direction=direction,
                          payload=payload)
            for tap in self._taps:
                tap(frame)
        return payload

    # -- fault injection -------------------------------------------------------

    def set_chaos(self, plan: FaultPlan) -> None:
        """Install a fault plan, carrying over existing registrations
        (static faults, VPN exit markers) from the previous plan."""
        plan.adopt(self.chaos)
        self.chaos = plan

    def inject_fault(self, hostname: str, port: int, error: Exception) -> None:
        """Make every future connect() to (hostname, port) raise a fresh
        copy of ``error`` (thin wrapper over the chaos plan's static
        fault table; the same exception instance is never raised twice)."""
        self.chaos.inject(hostname, port, error)

    def clear_fault(self, hostname: str, port: int) -> None:
        self.chaos.clear(hostname, port)


class PacketCapture:
    """Convenience tap that records frames, like a tiny pcap."""

    def __init__(self, fabric: NetworkFabric) -> None:
        self.frames: List[Frame] = []
        self._fabric = fabric
        self._callback = self.frames.append
        fabric.add_tap(self._callback)

    def detach(self) -> None:
        self._fabric.remove_tap(self._callback)

    def payloads_to(self, hostname: str) -> List[bytes]:
        return [f.payload for f in self.frames if f.destination_host == hostname]
