"""Section-3 analysis: what the purchased installs actually did.

Joins three sources, exactly as the paper does:

* the developer console (installs per campaign window -- ground truth
  for *how many* installs arrived, including ones that never phoned home),
* the telemetry server (which devices opened the app, clicked the
  record button, when, and from what network), and
* the campaign schedule (non-overlapping windows, so every install is
  attributable to one IIP).

The telemetry is read from the collector's columns by index: one walk
in canonical order keeps, per device, the index of its first upload and
whether it ever clicked, clicked the day after its first upload, or
uploaded from a datacenter ASN.  No row is built per upload.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.affiliates.registry import has_money_keyword
from repro.honeyapp.server import TelemetryServer
from repro.honeyapp.telemetry import EVENT_RECORD_CLICK
from repro.users.devices import looks_like_emulator

#: Installs from one /24 at which the block is reported as a device farm.
FARM_MIN_INSTALLS = 10


@dataclass(frozen=True)
class CampaignWindow:
    """One IIP's purchase window (no two windows overlap)."""

    iip_name: str
    campaign_id: str
    start_day: int
    end_day: int

    def contains(self, day: int) -> bool:
        return self.start_day <= day <= self.end_day


@dataclass(frozen=True)
class AcquisitionSummary:
    iip_name: str
    installs: int                 # from the developer console
    devices_with_telemetry: int   # opened at least once
    missing_telemetry: int
    missing_fraction: float
    delivery_hours: float         # span from first to last install


@dataclass(frozen=True)
class EngagementSummary:
    iip_name: str
    installs: int
    clicked_record: int
    click_rate: float
    clicked_day_after: int        # devices clicking the day after install


@dataclass(frozen=True)
class FarmReport:
    ip_slash24: str
    installs: int
    rooted: int
    rooted_sharing_ssid: int


@dataclass(frozen=True)
class AutomationSummary:
    emulator_installs: int
    emulator_by_iip: Dict[str, int]
    cloud_asn_devices: int
    cloud_by_iip: Dict[str, int]
    farms: List[FarmReport]


@dataclass(frozen=True)
class CoInstallSummary:
    total_unique_packages: int
    money_keyword_fraction_by_iip: Dict[str, float]
    top_affiliate_by_iip: Dict[str, Tuple[str, float]]  # (package, share)


class HoneyExperimentAnalysis:
    """Computes every Section-3 measurement from raw experiment data."""

    def __init__(
        self,
        windows: Sequence[CampaignWindow],
        telemetry: TelemetryServer,
        console_installs: Dict[str, int],
        install_days: Dict[str, List[Tuple[int, float]]],
    ) -> None:
        """
        Parameters
        ----------
        windows:
            The campaign schedule.
        telemetry:
            The collection server (read-only).
        console_installs:
            campaign_id -> install count, from the developer console.
        install_days:
            campaign_id -> list of (day, hour) install timestamps, from
            the console's daily series (hour resolution within a day is
            available to developers in near-real-time charts).
        """
        self._windows = list(windows)
        self._columns = telemetry.columns
        self._console = dict(console_installs)
        self._install_days = {key: list(value)
                              for key, value in install_days.items()}
        #: device -> column index of its first upload (canonical order).
        self._first: Dict[str, int] = {}
        self._device_window: Dict[str, CampaignWindow] = {}
        self._clicked: Set[str] = set()
        self._clicked_day_after: Set[str] = set()
        self._cloud: Set[str] = set()
        self._assign_devices()

    # -- attribution -------------------------------------------------------

    def _window_for_day(self, day: int) -> Optional[CampaignWindow]:
        for window in self._windows:
            if window.contains(day):
                return window
        return None

    def _assign_devices(self) -> None:
        """Attribute each telemetry device to the window of its first event.

        Events are walked in canonical ``(day, hour, device, event)``
        order, not server arrival order, so the analysis never depends
        on the order in which uploads happened to land.  A device's
        first event is its first in that order, and the day after is
        counted from that event's day.
        """
        columns = self._columns
        days, hours = columns.day, columns.hour
        device_ids, events = columns.device_id, columns.event
        kinds = columns.source_asn_kind
        order = sorted(range(len(columns)),
                       key=lambda i: (days[i], hours[i], device_ids[i],
                                      events[i]))
        first = self._first
        for index in order:
            device_id = device_ids[index]
            start = first.setdefault(device_id, index)
            if events[index] == EVENT_RECORD_CLICK:
                self._clicked.add(device_id)
                if days[index] == days[start] + 1:
                    self._clicked_day_after.add(device_id)
            if kinds[index] == "datacenter":
                self._cloud.add(device_id)
        for device_id, index in first.items():
            window = self._window_for_day(days[index])
            if window is not None:
                self._device_window[device_id] = window

    def devices_for(self, iip_name: str) -> List[str]:
        return sorted(device_id for device_id, window in self._device_window.items()
                      if window.iip_name == iip_name)

    # -- user acquisition -------------------------------------------------------

    def acquisition(self) -> List[AcquisitionSummary]:
        summaries = []
        for window in self._windows:
            installs = self._console.get(window.campaign_id, 0)
            devices = len(self.devices_for(window.iip_name))
            missing = max(0, installs - devices)
            timestamps = sorted(
                day * 24.0 + hour
                for day, hour in self._install_days.get(window.campaign_id, []))
            span = (timestamps[-1] - timestamps[0]) if len(timestamps) > 1 else 0.0
            summaries.append(AcquisitionSummary(
                iip_name=window.iip_name,
                installs=installs,
                devices_with_telemetry=devices,
                missing_telemetry=missing,
                missing_fraction=missing / installs if installs else 0.0,
                delivery_hours=span,
            ))
        return summaries

    def total_installs(self) -> int:
        return sum(self._console.get(window.campaign_id, 0)
                   for window in self._windows)

    # -- engagement ------------------------------------------------------------

    def engagement(self) -> List[EngagementSummary]:
        summaries = []
        for window in self._windows:
            installs = self._console.get(window.campaign_id, 0)
            devices = self.devices_for(window.iip_name)
            clicked = self._clicked.intersection(devices)
            clicked_day_after = len(self._clicked_day_after.intersection(
                devices))
            summaries.append(EngagementSummary(
                iip_name=window.iip_name,
                installs=installs,
                clicked_record=len(clicked),
                click_rate=len(clicked) / installs if installs else 0.0,
                clicked_day_after=clicked_day_after,
            ))
        return summaries

    # -- automation signals -------------------------------------------------------

    def automation(self) -> AutomationSummary:
        emulator_by_iip: Dict[str, int] = Counter()
        cloud_by_iip: Dict[str, int] = Counter()
        block_devices: Dict[str, Set[str]] = defaultdict(set)
        columns = self._columns
        for device_id, window in self._device_window.items():
            first = self._first[device_id]
            if looks_like_emulator(columns.build[first]):
                emulator_by_iip[window.iip_name] += 1
            if device_id in self._cloud:
                cloud_by_iip[window.iip_name] += 1
            block_devices[columns.ip_slash24[first]].add(device_id)
        farms = []
        for block, devices in sorted(block_devices.items()):
            if len(devices) < FARM_MIN_INSTALLS:
                continue
            rooted = [d for d in devices
                      if columns.is_rooted[self._first[d]]]
            ssids = Counter(columns.ssid_hash[self._first[d]]
                            for d in rooted)
            shared = max(ssids.values()) if ssids else 0
            farms.append(FarmReport(
                ip_slash24=block,
                installs=len(devices),
                rooted=len(rooted),
                rooted_sharing_ssid=shared,
            ))
        return AutomationSummary(
            emulator_installs=sum(emulator_by_iip.values()),
            emulator_by_iip=dict(emulator_by_iip),
            cloud_asn_devices=sum(cloud_by_iip.values()),
            cloud_by_iip=dict(cloud_by_iip),
            farms=farms,
        )

    # -- co-installed apps -------------------------------------------------------

    def co_installs(self) -> CoInstallSummary:
        all_packages: Set[str] = set()
        keyword_fraction: Dict[str, float] = {}
        top_affiliate: Dict[str, Tuple[str, float]] = {}
        for window in self._windows:
            devices = self.devices_for(window.iip_name)
            if not devices:
                continue
            with_keyword = 0
            package_counter: Counter = Counter()
            for device_id in devices:
                packages = set(self._columns.installed_packages(
                    self._first[device_id]))
                all_packages.update(packages)
                money_apps = {p for p in packages if has_money_keyword(p)}
                if money_apps:
                    with_keyword += 1
                package_counter.update(money_apps)
            keyword_fraction[window.iip_name] = with_keyword / len(devices)
            if package_counter:
                package, count = package_counter.most_common(1)[0]
                top_affiliate[window.iip_name] = (package, count / len(devices))
        return CoInstallSummary(
            total_unique_packages=len(all_packages),
            money_keyword_fraction_by_iip=keyword_fraction,
            top_affiliate_by_iip=top_affiliate,
        )
