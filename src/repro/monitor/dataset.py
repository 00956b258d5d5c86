"""The offer dataset: observations, dedup, payout normalisation.

The paper's headline dataset: 2,126 offers from 922 unique advertised
apps across 7 IIPs over three months, with payouts normalised from each
affiliate app's point currency back to USD.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.affiliates.app import AffiliateAppSpec
from repro.analysis.columnar import ColumnarFrame
from repro.analysis.streams import fold_distinct, fold_group_min_max
from repro.checkpointed import Checkpointed
from repro.obs import NULL_OBS, LabelKeys, Observability

#: The record attributes the dataset's columnar frame carries — what
#: the analysis tables consume (sets like ``countries`` stay on the
#: records; tables that need them go through :meth:`OfferDataset.offers`).
FRAME_FIELDS = ("iip_name", "offer_id", "package", "app_title",
                "description", "payout_usd", "first_seen_day",
                "last_seen_day")


@dataclass(frozen=True)
class ObservedOffer:
    """One offer as seen on one wall, in one country, on one day."""

    iip_name: str
    offer_id: str
    package: str
    app_title: str
    play_store_url: str
    description: str
    payout_points: int
    currency: str
    affiliate_package: str
    country: Optional[str]
    day: int


@dataclass
class OfferRecord:
    """A deduplicated offer with its observation history."""

    iip_name: str
    offer_id: str
    package: str
    app_title: str
    description: str
    payout_usd: float
    first_seen_day: int
    last_seen_day: int
    countries: Set[str]
    affiliates: Set[str]


def observed_offer_to_state(offer: ObservedOffer) -> Dict[str, object]:
    return {
        "iip_name": offer.iip_name,
        "offer_id": offer.offer_id,
        "package": offer.package,
        "app_title": offer.app_title,
        "play_store_url": offer.play_store_url,
        "description": offer.description,
        "payout_points": offer.payout_points,
        "currency": offer.currency,
        "affiliate_package": offer.affiliate_package,
        "country": offer.country,
        "day": offer.day,
    }


def observed_offer_from_state(state: Dict[str, object]) -> ObservedOffer:
    country = state["country"]
    return ObservedOffer(
        iip_name=str(state["iip_name"]),
        offer_id=str(state["offer_id"]),
        package=str(state["package"]),
        app_title=str(state["app_title"]),
        play_store_url=str(state["play_store_url"]),
        description=str(state["description"]),
        payout_points=int(state["payout_points"]),  # type: ignore[arg-type]
        currency=str(state["currency"]),
        affiliate_package=str(state["affiliate_package"]),
        country=None if country is None else str(country),
        day=int(state["day"]),  # type: ignore[arg-type]
    )


class OfferDataset(Checkpointed):
    """Accumulates milk runs into the deduplicated offer corpus."""

    _STATE = ("_records",)
    _records: Dict[Tuple[str, str], OfferRecord]
    _TRANSIENT = {
        **dict.fromkeys(
            ("_frame", "_windows"),
            "a memo of the records (the columnar view, the campaign "
            "windows), dropped on every ingest and rebuilt on first use"),
    }

    def __init__(self, affiliate_specs: Mapping[str, AffiliateAppSpec],
                 obs: Optional[Observability] = None,
                 batch_rows: int = 0) -> None:
        self._specs = dict(affiliate_specs)
        self._records = {}
        self.obs = obs or NULL_OBS
        #: Rows per analysis chunk; 0 materialises the full frame (the
        #: historical behaviour).  With a positive value every aggregate
        #: query folds over :meth:`frame_chunks` and the full frame is
        #: never built.
        self.batch_rows = batch_rows
        #: Columnar view of the records, built lazily and invalidated on
        #: every mutation; all aggregate queries below run against it.
        self._frame: Optional[ColumnarFrame] = None
        self._windows: Optional[Dict[str, Tuple[int, int]]] = None
        self._iip_keys = LabelKeys("iip")

    # -- ingestion ------------------------------------------------------------

    def normalize_payout(self, observation: ObservedOffer) -> float:
        """Points -> USD using the observing affiliate's exchange rate."""
        spec = self._specs.get(observation.affiliate_package)
        if spec is None:
            raise KeyError(
                f"no exchange rate known for {observation.affiliate_package!r}")
        return spec.wall_config().points_to_usd(observation.payout_points)

    def ingest(self, observation: ObservedOffer) -> None:
        key = (observation.iip_name, observation.offer_id)
        payout_usd = self.normalize_payout(observation)
        self._frame = None
        self._windows = None
        record = self._records.get(key)
        if record is None:
            self.obs.metrics.inc_keyed("monitor.offers_new",
                                       self._iip_keys[observation.iip_name])
            self._records[key] = OfferRecord(
                iip_name=observation.iip_name,
                offer_id=observation.offer_id,
                package=observation.package,
                app_title=observation.app_title,
                description=observation.description,
                payout_usd=payout_usd,
                first_seen_day=observation.day,
                last_seen_day=observation.day,
                countries=({observation.country}
                           if observation.country else set()),
                affiliates={observation.affiliate_package},
            )
            return
        self.obs.metrics.inc_keyed("monitor.dedup_hits",
                                   self._iip_keys[observation.iip_name])
        record.first_seen_day = min(record.first_seen_day, observation.day)
        record.last_seen_day = max(record.last_seen_day, observation.day)
        if observation.country:
            record.countries.add(observation.country)
        record.affiliates.add(observation.affiliate_package)

    def ingest_all(self, observations: List[ObservedOffer]) -> None:
        for observation in observations:
            self.ingest(observation)

    # -- queries ------------------------------------------------------------

    def frame(self) -> ColumnarFrame:
        """The columnar view of the deduplicated corpus, in canonical
        (iip, offer_id) order.  Built once per mutation epoch; every
        aggregate query and analysis table shares it."""
        if self._frame is None:
            self._frame = ColumnarFrame.from_records(self.offers(),
                                                     FRAME_FIELDS)
        return self._frame

    def frame_chunks(self) -> Iterable[ColumnarFrame]:
        """Row-contiguous chunks of the corpus in canonical order.

        With ``batch_rows == 0`` this yields the one cached full frame,
        so the materialised path is the single-chunk special case of the
        streaming path — every fold below runs the same code either
        way, which is what keeps the two modes byte-identical.
        """
        if self.batch_rows <= 0:
            yield self.frame()
            return
        keys = sorted(self._records)
        for start in range(0, len(keys), self.batch_rows):
            yield ColumnarFrame.from_records(
                (self._records[key]
                 for key in keys[start:start + self.batch_rows]),
                FRAME_FIELDS)

    def _campaign_windows(self) -> Dict[str, Tuple[int, int]]:
        if self._windows is None:
            self._windows = fold_group_min_max(
                self.frame_chunks(), "package",
                "first_seen_day", "last_seen_day")
        return self._windows

    def offers(self) -> List[OfferRecord]:
        return [self._records[key] for key in sorted(self._records)]

    def offer_count(self) -> int:
        return len(self._records)

    def unique_packages(self) -> List[str]:
        return fold_distinct(self.frame_chunks(), "package")

    def unique_descriptions(self) -> List[str]:
        return fold_distinct(self.frame_chunks(), "description")

    def iips_observed(self) -> List[str]:
        return fold_distinct(self.frame_chunks(), "iip_name")

    def campaign_window(self, package: str) -> Tuple[int, int]:
        """(first day, last day) this app's offers were observed."""
        window = self._campaign_windows().get(package)
        if window is None:
            raise KeyError(f"package never observed: {package!r}")
        return window

    def mean_campaign_duration_days(self) -> float:
        windows = self._campaign_windows()
        if not windows:
            return 0.0
        total = sum(end - start + 1 for start, end in windows.values())
        return total / len(windows)

    def offers_by_package(self) -> Dict[str, List[OfferRecord]]:
        grouped: Dict[str, List[OfferRecord]] = defaultdict(list)
        for record in self.offers():
            grouped[record.package].append(record)
        return dict(grouped)
