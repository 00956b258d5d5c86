"""The researchers' telemetry collection server."""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Set

from repro.honeyapp.app import COLLECT_HOST
from repro.honeyapp.telemetry import (
    EVENT_OPEN,
    EVENT_RECORD_CLICK,
    TelemetryPayload,
)
from repro.net.http import HttpRequest, HttpResponse
from repro.net.server import HttpsServer, RequestContext
from repro.net.tls import CertificateAuthority, issue_server_identity


@dataclass(frozen=True)
class StoredEvent:
    """A payload plus what the server itself observed about the sender."""

    payload: TelemetryPayload
    source_asn: Optional[int]
    source_asn_kind: Optional[str]    # "eyeball" / "datacenter"
    source_country: Optional[str]


class TelemetryServer:
    """HTTPS collector at :data:`~repro.honeyapp.app.COLLECT_HOST`.

    Stores every valid payload along with the ASN the connection came
    from (the payload itself only ever contains the sanitised /24).
    """

    def __init__(self, fabric, ca: CertificateAuthority,
                 rng: random.Random) -> None:
        self.hostname = COLLECT_HOST
        self.events: List[StoredEvent] = []
        self._asn_db = fabric.asn_db
        address = fabric.asn_db.allocate(16509, rng)
        identity = issue_server_identity(ca, COLLECT_HOST, rng)
        self._server = HttpsServer(fabric, COLLECT_HOST, address, identity,
                                   rng)
        self._server.router.post("/v1/telemetry", self._ingest)

    def _ingest(self, request: HttpRequest, context: RequestContext) -> HttpResponse:
        try:
            payload = TelemetryPayload.from_json(request.json())  # type: ignore[arg-type]
        except (KeyError, TypeError, ValueError) as exc:
            return HttpResponse.error(400, f"bad telemetry: {exc}")
        record = self._asn_db.lookup(context.client_address)
        self._server.obs.metrics.inc("honeyapp.telemetry_events",
                                     event=payload.event)
        self.events.append(StoredEvent(
            payload=payload,
            source_asn=record.number if record else None,
            source_asn_kind=record.kind if record else None,
            source_country=record.country if record else None,
        ))
        return HttpResponse.json_response({"status": "ok"}, status=201)

    # -- checkpoint/restore ---------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        return {
            "server": self._server.state_dict(),
            "events": [
                {"payload": stored.payload.to_json(),
                 "source_asn": stored.source_asn,
                 "source_asn_kind": stored.source_asn_kind,
                 "source_country": stored.source_country}
                for stored in self.events],
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self._server.load_state(state["server"])
        self.events = [
            StoredEvent(
                payload=TelemetryPayload.from_json(item["payload"]),
                source_asn=(None if item["source_asn"] is None
                            else int(item["source_asn"])),
                source_asn_kind=(None if item["source_asn_kind"] is None
                                 else str(item["source_asn_kind"])),
                source_country=(None if item["source_country"] is None
                                else str(item["source_country"])),
            )
            for item in state["events"]]  # type: ignore[union-attr]

    # -- convenience queries -------------------------------------------------

    def events_of(self, event: str) -> List[StoredEvent]:
        return [stored for stored in self.events
                if stored.payload.event == event]

    def devices_that_opened(self) -> Set[str]:
        return {stored.payload.device_id
                for stored in self.events_of(EVENT_OPEN)}

    def devices_that_clicked(self) -> Set[str]:
        return {stored.payload.device_id
                for stored in self.events_of(EVENT_RECORD_CLICK)}

    def clear(self) -> None:
        self.events.clear()
