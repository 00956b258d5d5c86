"""HTTPS front end of the Play Store, for the crawler to scrape.

Routes
------
``GET /store/apps/details?id=<package>``
    The public profile payload (404 for unknown packages).
``GET /store/charts/<kind>``
    The current top chart (``top_free`` / ``top_games`` / ``top_grossing``).

The front end always serves "today" according to the clock callable it
was constructed with -- crawlers cannot ask for historical data, which
is precisely the limitation the paper laments in Section 5.3 ("we lack
Google Play Store data ... outside of our crawl dates").
"""

from __future__ import annotations

import random
from typing import Callable

from repro.checkpointed import Checkpointed
from repro.net.http import HttpRequest, HttpResponse
from repro.net.ip import IPv4Address
from repro.net.server import HttpsServer, RequestContext
from repro.net.tls import CertificateAuthority, issue_server_identity
from repro.playstore.charts import ChartKind
from repro.playstore.store import PlayStore

PLAY_HOST = "play.google.example"


class PlayStoreFrontend(Checkpointed):
    """Binds the store's public read path onto the fabric."""

    _STATE = ("_server",)

    def __init__(
        self,
        fabric,
        store: PlayStore,
        ca: CertificateAuthority,
        rng: random.Random,
        current_day: Callable[[], int],
    ) -> None:
        self.store = store
        self._current_day = current_day
        address = fabric.asn_db.allocate(15169, rng)  # Google Cloud ASN
        identity = issue_server_identity(ca, PLAY_HOST, rng)
        self._server = HttpsServer(fabric, PLAY_HOST, address, identity, rng)
        self._server.router.get("/store/apps/details", self._details)
        self._server.router.get("/store/charts/{kind}", self._chart)

    def _details(self, request: HttpRequest, context: RequestContext) -> HttpResponse:
        package = request.query.get("id")
        if not package:
            return HttpResponse.error(400, "missing id parameter")
        if package not in self.store.catalog:
            return HttpResponse.error(404, f"unknown app {package}")
        day = self._current_day()
        profile = self.store.public_profile(package, day)
        profile["crawl_day"] = day
        return HttpResponse.json_response(profile)

    def _chart(self, request: HttpRequest, context: RequestContext) -> HttpResponse:
        kind_text = context.path_params["kind"]
        try:
            kind = ChartKind(kind_text)
        except ValueError:
            return HttpResponse.error(404, f"unknown chart {kind_text}")
        day = self._current_day()
        snapshot = self.store.chart_snapshot(kind, day)
        return HttpResponse.json_response({
            "chart": kind.value,
            "day": day,
            "entries": [
                {
                    "package": entry.package,
                    "rank": entry.rank,
                    "percentile": round(entry.percentile, 4),
                }
                for entry in snapshot.entries
            ],
        })
