"""The honey app itself: a voice-memo recorder with instrumentation.

The app has exactly one feature (the record button), which is the
point: any tap on it is engagement beyond the "install and open" offer,
and the paper's engagement analysis counts precisely those taps.
Telemetry is uploaded on open and on record-click, over HTTPS, to the
researchers' collection server.
"""

from __future__ import annotations

from typing import List, Optional

from repro.honeyapp.telemetry import (
    EVENT_OPEN,
    EVENT_RECORD_CLICK,
    build_payload,
)
from repro.net.client import HttpClient
from repro.users.devices import Device

HONEY_PACKAGE = "edu.research.voicememos"
HONEY_TITLE = "Voice Memos Saver"
COLLECT_HOST = "collect.research.example"


class HoneyAppNotInstalledError(RuntimeError):
    """The app was driven on a device that never installed it."""


class HoneyApp:
    """One install of the honey app on one device."""

    def __init__(self, device: Device, client: HttpClient) -> None:
        self.device = device
        self._client = client
        self.memos_recorded: List[float] = []
        self.upload_failures = 0

    def _upload(self, event: str, day: int, hour: float) -> bool:
        payload = build_payload(event, self.device, day, hour)
        try:
            response = self._client.post_json(
                COLLECT_HOST, "/v1/telemetry", payload.to_json())
        except Exception:  # noqa: BLE001 - telemetry must never crash the app
            self.upload_failures += 1
            return False
        if not response.ok:
            self.upload_failures += 1
            return False
        return True

    def open(self, day: int, hour: float) -> None:
        """Launch the app; uploads an 'open' event."""
        if not self.device.has_installed(HONEY_PACKAGE):
            raise HoneyAppNotInstalledError(self.device.device_id)
        self._upload(EVENT_OPEN, day, hour)

    def click_record(self, day: int, hour: float) -> None:
        """Tap the voice-memo record button (the app's only feature)."""
        if not self.device.has_installed(HONEY_PACKAGE):
            raise HoneyAppNotInstalledError(self.device.device_id)
        self.memos_recorded.append(day * 24.0 + hour)
        self._upload(EVENT_RECORD_CLICK, day, hour)
