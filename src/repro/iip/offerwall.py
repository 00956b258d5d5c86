"""Offer-wall HTTPS servers.

Each IIP exposes its wall at ``https://wall.<iip>.example/api/v1/offers``.
The response is JSON containing, per offer, exactly the fields the paper
says it parsed out of intercepted mitmproxy traffic: the offer
description, the payout (denominated in the *affiliate app's* point
currency, which is why the paper had to normalise payouts), and the
advertised app's Play Store URL.

Walls are geo-targeted: the server geolocates the request's source
address and only returns offers targeting that country -- the reason
the paper ran milkers behind VPN exits in eight countries.

Responses are paginated; the UI fuzzer's scrolling maps to fetching
successive pages until ``has_more`` is false.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.net.http import HttpRequest, HttpResponse
from repro.net.server import HttpsServer, RequestContext
from repro.net.tls import CertificateAuthority, issue_server_identity
from repro.iip.platform import IncentivizedInstallPlatform

PAGE_SIZE = 20


@dataclass(frozen=True)
class AffiliateWallConfig:
    """How one affiliate's wall is denominated."""

    affiliate_id: str
    currency_name: str      # "coins", "pirate gold", ...
    points_per_usd: float   # points shown per USD of *user* payout
    user_share: float       # fraction of the offer payout passed to the user

    def __post_init__(self) -> None:
        if self.points_per_usd <= 0:
            raise ValueError("points_per_usd must be positive")
        if not 0 < self.user_share <= 1:
            raise ValueError("user_share out of (0, 1]")

    def payout_to_points(self, payout_usd: float) -> int:
        return int(round(payout_usd * self.user_share * self.points_per_usd))

    def points_to_usd(self, points: int) -> float:
        """Invert the display conversion (the dataset normaliser's job)."""
        return points / self.points_per_usd / self.user_share


class OfferWallServer:
    """Binds one IIP's offer wall onto the fabric."""

    def __init__(
        self,
        fabric,
        platform: IncentivizedInstallPlatform,
        ca: CertificateAuthority,
        rng: random.Random,
        current_day: Callable[[], int],
    ) -> None:
        self.platform = platform
        self.hostname = platform.config.wall_host
        self._current_day = current_day
        self._affiliates: Dict[str, AffiliateWallConfig] = {}
        address = fabric.asn_db.allocate(16509, rng)  # AWS-hosted walls
        identity = issue_server_identity(ca, self.hostname, rng)
        self._server = HttpsServer(fabric, self.hostname, address, identity, rng)
        self._server.router.get("/api/v1/offers", self._offers)
        self._fabric = fabric

    def register_affiliate(self, config: AffiliateWallConfig) -> None:
        self._affiliates[config.affiliate_id] = config
        self.platform.attach_affiliate(config.affiliate_id)

    def _offers(self, request: HttpRequest, context: RequestContext) -> HttpResponse:
        affiliate_id = request.query.get("affiliate_id")
        if not affiliate_id:
            return HttpResponse.error(400, "missing affiliate_id")
        config = self._affiliates.get(affiliate_id)
        if config is None:
            return HttpResponse.error(403, f"unknown affiliate {affiliate_id}")
        try:
            page = int(request.query.get("page", "0"))
        except ValueError:
            return HttpResponse.error(400, "bad page number")
        country = self._fabric.asn_db.country_of(context.client_address)
        day = self._current_day()
        offers = self.platform.live_offers(day, country)
        start = page * PAGE_SIZE
        window = offers[start:start + PAGE_SIZE]
        payload = {
            "iip": self.platform.name,
            "affiliate_id": affiliate_id,
            "country": country,
            "day": day,
            "page": page,
            "has_more": start + PAGE_SIZE < len(offers),
            "offers": [
                {
                    "offer_id": offer.offer_id,
                    "app": {
                        "package": offer.package,
                        "title": offer.app_title,
                        "play_store_url": offer.play_store_url,
                    },
                    "description": offer.description,
                    "payout": {
                        "points": config.payout_to_points(offer.payout_usd),
                        "currency": config.currency_name,
                    },
                    "expires_day": offer.end_day,
                }
                for offer in window
            ],
        }
        return HttpResponse.json_response(payload)
