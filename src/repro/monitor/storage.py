"""Dataset persistence: the public data release.

The authors shared their crawled data publicly ("To foster follow-up
research, we have also publicly shared our crawled data").  This module
serialises the measured artifacts -- the deduplicated offer corpus and
the crawl archive -- to JSON files and loads them back, so analyses can
run without re-running the measurement.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Union

from repro.monitor.crawler import (
    ChartAppearance,
    CrawlArchive,
    snapshot_from_state,
    snapshot_to_state,
)
from repro.monitor.dataset import OfferDataset, OfferRecord

FORMAT_VERSION = 1


class DatasetFormatError(ValueError):
    """The file is not a dataset this version can read."""


def _list(data: Dict[str, object], key: str) -> List[object]:
    """``data[key]``, which must be a JSON list."""
    value = data.get(key)
    if not isinstance(value, list):
        raise DatasetFormatError(f"{key!r} is missing or not a list")
    return value


# ---------------------------------------------------------------------------
# Offer dataset
# ---------------------------------------------------------------------------


def _record_to_json(record: OfferRecord) -> Dict[str, object]:
    return {
        "iip": record.iip_name,
        "offer_id": record.offer_id,
        "package": record.package,
        "app_title": record.app_title,
        "description": record.description,
        "payout_usd": round(record.payout_usd, 4),
        "first_seen_day": record.first_seen_day,
        "last_seen_day": record.last_seen_day,
        "countries": sorted(record.countries),
        "affiliates": sorted(record.affiliates),
    }


def _record_from_json(data: Dict[str, object]) -> OfferRecord:
    try:
        return OfferRecord(
            iip_name=str(data["iip"]),
            offer_id=str(data["offer_id"]),
            package=str(data["package"]),
            app_title=str(data["app_title"]),
            description=str(data["description"]),
            payout_usd=float(data["payout_usd"]),       # type: ignore[arg-type]
            first_seen_day=int(data["first_seen_day"]),  # type: ignore[arg-type]
            last_seen_day=int(data["last_seen_day"]),    # type: ignore[arg-type]
            countries=set(data["countries"]),            # type: ignore[arg-type]
            affiliates=set(data["affiliates"]),          # type: ignore[arg-type]
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"malformed offer record: {exc}") from exc


def save_dataset(dataset: OfferDataset, path: Union[str, Path]) -> int:
    """Write the offer corpus to JSON; returns the record count."""
    records = [_record_to_json(record) for record in dataset.offers()]
    payload = {"format_version": FORMAT_VERSION, "kind": "offer_dataset",
               "offers": records}
    Path(path).write_text(json.dumps(payload, indent=1, sort_keys=True))
    return len(records)


def load_offer_records(path: Union[str, Path]) -> List[OfferRecord]:
    """Read a published offer corpus back into records.

    Loading bypasses :class:`OfferDataset`'s ingestion (payouts were
    already normalised before publication), returning the records the
    analysis functions can consume via a rehydrated dataset.
    """
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"not JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != "offer_dataset":
        raise DatasetFormatError("not an offer dataset file")
    if payload.get("format_version") != FORMAT_VERSION:
        raise DatasetFormatError(
            f"unsupported format version {payload.get('format_version')!r}")
    return [_record_from_json(entry) for entry in _list(payload, "offers")]


def rehydrate_dataset(records: List[OfferRecord]) -> OfferDataset:
    """An :class:`OfferDataset` whose corpus is the given records."""
    dataset = OfferDataset({})
    for record in records:
        dataset._records[(record.iip_name, record.offer_id)] = record
    return dataset


# ---------------------------------------------------------------------------
# Crawl archive
# ---------------------------------------------------------------------------


def save_archive(archive: CrawlArchive, path: Union[str, Path]) -> int:
    """Write the crawl archive to JSON; returns the snapshot count.

    Profiles serialise in sorted (package, day) order — the canonical
    order :meth:`CrawlArchive.iter_profiles` yields in both spill and
    in-memory modes.  (The pre-streaming code iterated a package *set*,
    whose order depended on the interpreter's hash seed: the same run
    could export differently ordered files on different hosts.)
    """
    profiles = [snapshot_to_state(snapshot)
                for snapshot in archive.iter_profiles()]
    charts = []
    for (chart, day), appearances in sorted(archive._chart_days.items()):
        charts.append({
            "chart": chart,
            "day": day,
            "entries": [{"package": a.package, "rank": a.rank,
                         "percentile": a.percentile} for a in appearances],
        })
    payload = {
        "format_version": FORMAT_VERSION,
        "kind": "crawl_archive",
        "crawl_days": archive.crawl_days,
        "profiles": profiles,
        "charts": charts,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True))
    return len(profiles)


def load_archive(path: Union[str, Path]) -> CrawlArchive:
    try:
        payload = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"not JSON: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("kind") != "crawl_archive":
        raise DatasetFormatError("not a crawl archive file")
    if payload.get("format_version") != FORMAT_VERSION:
        raise DatasetFormatError(
            f"unsupported format version {payload.get('format_version')!r}")
    archive = CrawlArchive()
    try:
        for entry in _list(payload, "profiles"):
            archive.add_profile(snapshot_from_state(entry))
        for chart_entry in _list(payload, "charts"):
            chart = str(chart_entry["chart"])
            day = int(chart_entry["day"])
            archive.add_chart(chart, day, [
                ChartAppearance(package=str(e["package"]), chart=chart,
                                day=day, rank=int(e["rank"]),
                                percentile=float(e["percentile"]))
                for e in _list(chart_entry, "entries")
            ])
        archive.crawl_days = [int(day)
                              for day in _list(payload, "crawl_days")]
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"malformed crawl archive: {exc}") from exc
    return archive
