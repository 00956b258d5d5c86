"""Telemetry payloads and client-side privacy minimisation.

The honey app never uploads identifying data: the SSID is hashed, the
last IPv4 octet is dropped before upload, and no hardware identifiers
(IMEI/IMSI) exist in the payload at all.  The tests assert these
invariants directly on serialised payloads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.net.ip import IPv4Address

EVENT_OPEN = "open"
EVENT_RECORD_CLICK = "record_click"
VALID_EVENTS = (EVENT_OPEN, EVENT_RECORD_CLICK)

#: Days lie in [-_DAY_LIMIT, _DAY_LIMIT): the collector keeps them in a
#: signed 64-bit column.
_DAY_LIMIT = 2 ** 63
#: The last hour an upload can carry at its three decimals.
_LAST_HOUR = 23.999


def sanitize_ssid(ssid: str) -> str:
    """Hash the SSID; enough to detect co-located devices, nothing more."""
    return hashlib.sha256(ssid.encode("utf-8")).hexdigest()[:16]


@dataclass(frozen=True)
class TelemetryPayload:
    """One event as uploaded by the honey app."""

    event: str
    device_id: str           # app-scoped random id, not a hardware id
    day: int
    hour: float
    build: str
    is_rooted: bool
    ssid_hash: str
    ip_slash24: str          # "a.b.c.0/24"
    installed_packages: Tuple[str, ...]

    def __post_init__(self) -> None:
        if self.event not in VALID_EVENTS:
            raise ValueError(f"unknown event {self.event!r}")
        if not 0 <= self.hour < 24:
            raise ValueError(f"hour out of range: {self.hour}")

    def to_json(self) -> Dict[str, object]:
        return {
            "event": self.event,
            "device_id": self.device_id,
            "day": self.day,
            # Rounding must not carry an hour into the next day: 24.0
            # would not parse again.
            "hour": min(round(self.hour, 3), _LAST_HOUR),
            "build": self.build,
            "is_rooted": self.is_rooted,
            "ssid_hash": self.ssid_hash,
            "ip_slash24": self.ip_slash24,
            "installed_packages": sorted(self.installed_packages),
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "TelemetryPayload":
        """Parse an upload, checking each field's JSON type instead of
        coercing it: a payload that parses can always be written back
        out by :meth:`to_json` and held exactly by the collector's
        columns.  Anything else raises ``ValueError``."""
        packages = data["installed_packages"]
        if not (isinstance(packages, list)
                and all(isinstance(name, str) for name in packages)):
            raise ValueError(
                f"installed_packages must be a list of strings: {packages!r}")
        return cls(
            event=_text(data, "event"),
            device_id=_text(data, "device_id"),
            day=_day(data["day"]),
            hour=_hour(data["hour"]),
            build=_text(data, "build"),
            is_rooted=_flag(data["is_rooted"]),
            ssid_hash=_text(data, "ssid_hash"),
            ip_slash24=_text(data, "ip_slash24"),
            installed_packages=tuple(packages),
        )


def _text(data: Dict[str, object], key: str) -> str:
    value = data[key]
    if not isinstance(value, str):
        raise ValueError(f"{key} must be a string: {value!r}")
    return value


def _day(value: object) -> int:
    # ``bool`` is an ``int`` subclass; a day is neither it nor a float.
    if type(value) is not int or not -_DAY_LIMIT <= value < _DAY_LIMIT:
        raise ValueError(f"day must be a 64-bit int: {value!r}")
    return value


def _hour(value: object) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"hour must be a number: {value!r}")
    # Checked before ``float()``: an int too large for a float would
    # raise ``OverflowError`` there.
    if not 0 <= value < 24:
        raise ValueError(f"hour out of range: {value}")
    return float(value)


def _flag(value: object) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"is_rooted must be a bool: {value!r}")
    return value


def build_payload(event: str, device, day: int, hour: float) -> TelemetryPayload:
    """Assemble a sanitised payload from a live device."""
    profile = device.profile
    return TelemetryPayload(
        event=event,
        device_id=profile.device_id,
        day=day,
        hour=hour,
        build=profile.build,
        is_rooted=profile.is_rooted,
        ssid_hash=sanitize_ssid(profile.ssid),
        ip_slash24=f"{device.address.anonymized()}/24",
        installed_packages=tuple(sorted(device.installed_packages)),
    )
