"""The researchers' telemetry collection server.

The collector keeps every upload it accepts in :class:`TelemetryColumns`,
one column per stored field, in arrival order.  Day, hour and root
status are stdlib ``array``s.  Every other column holds references to
values the store keeps once: the text of each distinct event, device
id, build, SSID hash and /24, the sender's ASN fields, and each distinct
installed-package list as one compact JSON string.  That string decodes
to exactly the uploaded names, in upload order, whatever characters
they contain.  Repeat uploads from a device therefore add references,
not objects.  :class:`StoredEvent` rows are built only when asked for;
the Section-3 analysis reads the columns by index.
"""

from __future__ import annotations

import json
import random
from array import array
from dataclasses import dataclass
from typing import Dict, Hashable, List, Optional, Tuple

from repro.checkpointed import Checkpointed
from repro.honeyapp.app import COLLECT_HOST
from repro.honeyapp.telemetry import TelemetryPayload
from repro.net.errors import HttpProtocolError
from repro.net.http import HttpRequest, HttpResponse
from repro.net.server import HttpsServer, RequestContext
from repro.net.tls import CertificateAuthority, issue_server_identity
from repro.obs import LabelKeys

#: Encodes an installed-package list as the store keeps it.
_encode_packages = json.JSONEncoder(separators=(",", ":")).encode


@dataclass(frozen=True)
class StoredEvent:
    """A payload plus what the server itself observed about the sender."""

    payload: TelemetryPayload
    source_asn: Optional[int]
    source_asn_kind: Optional[str]    # "eyeball" / "datacenter"
    source_country: Optional[str]


class TelemetryColumns:
    """Every stored upload, one column per field, row ``i`` across all.

    ``packages`` holds JSON text; :meth:`installed_packages` decodes it.
    The ASN columns hold ``None`` for a sender in unallocated space.
    """

    def __init__(self) -> None:
        self.day = array("q")
        self.hour = array("d")
        self.is_rooted = array("b")
        self.event: List[str] = []
        self.device_id: List[str] = []
        self.build: List[str] = []
        self.ssid_hash: List[str] = []
        self.ip_slash24: List[str] = []
        self.packages: List[str] = []
        self.source_asn: List[Optional[int]] = []
        self.source_asn_kind: List[Optional[str]] = []
        self.source_country: List[Optional[str]] = []
        #: Each distinct value any column holds, mapped to itself.
        self._shared: Dict[Hashable, Hashable] = {}

    def _share(self, value):
        """The store's one copy of ``value``."""
        return self._shared.setdefault(value, value)

    def _share_text(self, text: str) -> str:
        """The store's one copy of a string a request decoded.  It is
        the store's own copy, made on first sight, so nothing that the
        request's JSON decoder allocated outlives the request."""
        shared = self._shared.get(text)
        if shared is None:
            shared = "".join((text, ""))
            self._shared[shared] = shared
        return shared

    def __len__(self) -> int:
        return len(self.day)

    def append(self, payload: TelemetryPayload, source_asn: Optional[int],
               source_asn_kind: Optional[str],
               source_country: Optional[str]) -> None:
        share, text = self._share, self._share_text
        self.day.append(payload.day)
        self.hour.append(payload.hour)
        self.is_rooted.append(payload.is_rooted)
        self.event.append(text(payload.event))
        self.device_id.append(text(payload.device_id))
        self.build.append(text(payload.build))
        self.ssid_hash.append(text(payload.ssid_hash))
        self.ip_slash24.append(text(payload.ip_slash24))
        self.packages.append(share(
            _encode_packages(payload.installed_packages)))
        self.source_asn.append(share(source_asn))
        self.source_asn_kind.append(share(source_asn_kind))
        self.source_country.append(share(source_country))

    def installed_packages(self, index: int) -> Tuple[str, ...]:
        return tuple(json.loads(self.packages[index]))

    def stored(self, index: int) -> StoredEvent:
        """Row ``index`` as the payload it came from plus its sender."""
        return StoredEvent(
            payload=TelemetryPayload(
                event=self.event[index],
                device_id=self.device_id[index],
                day=self.day[index],
                hour=self.hour[index],
                build=self.build[index],
                is_rooted=bool(self.is_rooted[index]),
                ssid_hash=self.ssid_hash[index],
                ip_slash24=self.ip_slash24[index],
                installed_packages=self.installed_packages(index),
            ),
            source_asn=self.source_asn[index],
            source_asn_kind=self.source_asn_kind[index],
            source_country=self.source_country[index],
        )


class TelemetryServer(Checkpointed):
    """HTTPS collector at :data:`~repro.honeyapp.app.COLLECT_HOST`.

    Stores every valid payload along with the ASN the connection came
    from (the payload itself only ever contains the sanitised /24).
    """

    _STATE = ("_server",)

    def __init__(self, fabric, ca: CertificateAuthority,
                 rng: random.Random) -> None:
        self.hostname = COLLECT_HOST
        self.columns = TelemetryColumns()
        self._asn_db = fabric.asn_db
        address = fabric.asn_db.allocate(16509, rng)
        identity = issue_server_identity(ca, COLLECT_HOST, rng)
        self._server = HttpsServer(fabric, COLLECT_HOST, address, identity,
                                   rng)
        self._server.router.post("/v1/telemetry", self._ingest)
        self._event_keys = LabelKeys("event")

    def _ingest(self, request: HttpRequest, context: RequestContext) -> HttpResponse:
        try:
            payload = TelemetryPayload.from_json(request.json())  # type: ignore[arg-type]
        except (HttpProtocolError, KeyError, TypeError, ValueError) as exc:
            return HttpResponse.error(400, f"bad telemetry: {exc}")
        record = self._asn_db.lookup(context.client_address)
        self.columns.append(
            payload,
            source_asn=record.number if record else None,
            source_asn_kind=record.kind if record else None,
            source_country=record.country if record else None)
        self._server.obs.metrics.inc_keyed(
            "honeyapp.telemetry_events",
            self._event_keys[self.columns.event[-1]])
        return HttpResponse.json_response({"status": "ok"}, status=201)

    # -- checkpoint/restore ---------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        state = super().state_dict()
        state["events"] = [
            {"payload": stored.payload.to_json(),
             "source_asn": stored.source_asn,
             "source_asn_kind": stored.source_asn_kind,
             "source_country": stored.source_country}
            for stored in self.events()]
        return state

    def load_state(self, state: Dict[str, object]) -> None:
        super().load_state(state)
        self.columns = columns = TelemetryColumns()
        for item in state["events"]:  # type: ignore[union-attr]
            columns.append(
                TelemetryPayload.from_json(item["payload"]),
                source_asn=(None if item["source_asn"] is None
                            else int(item["source_asn"])),
                source_asn_kind=(None if item["source_asn_kind"] is None
                                 else str(item["source_asn_kind"])),
                source_country=(None if item["source_country"] is None
                                else str(item["source_country"])))

    # -- convenience queries -------------------------------------------------

    def events(self) -> List[StoredEvent]:
        """Every stored upload as a row, in arrival order."""
        return list(map(self.columns.stored, range(len(self.columns))))
