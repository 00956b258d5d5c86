"""Android device models.

Everything the honey app's telemetry can observe about a device lives
here: the hardware build string (emulator detection looks for strings
like ``generic`` / ``genymotion``, as the paper's footnote describes),
root status (RootBeer-style check), the WiFi SSID, the public IPv4
address (and hence ASN and /24 block), and the installed package list.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Set

from repro.checkpointed import Checkpointed
from repro.net.fabric import Endpoint, NetworkFabric
from repro.net.ip import AsnDatabase, IPv4Address
from repro.net.tls import TrustStore

#: Build fingerprints of real handsets.
REAL_BUILDS = (
    "samsung/SM-G960F", "samsung/SM-A105F", "xiaomi/Redmi Note 7",
    "xiaomi/Redmi 6A", "huawei/P20 Lite", "oppo/CPH1909",
    "vivo/1811", "motorola/moto g(6)", "google/Pixel 3a",
    "oneplus/ONEPLUS A6013", "realme/RMX1851", "nokia/TA-1053",
)

#: Build fingerprints that give emulators away.
EMULATOR_BUILDS = (
    "generic/sdk_gphone_x86", "generic_x86/google_sdk",
    "genymotion/vbox86p", "unknown/Android SDK built for x86",
)

EMULATOR_MARKERS = ("generic", "genymotion", "sdk", "vbox")


def looks_like_emulator(build: str) -> bool:
    """The honey app's string-matching emulator heuristic."""
    lowered = build.lower()
    return any(marker in lowered for marker in EMULATOR_MARKERS)


@dataclass(frozen=True)
class DeviceProfile:
    """Static identity of one device."""

    device_id: str
    build: str
    is_rooted: bool
    ssid: str
    country: str

    @property
    def is_emulator(self) -> bool:
        return looks_like_emulator(self.build)


class Device(Checkpointed):
    """One device attached to the network fabric.  A checkpoint holds
    what moves after construction: the installed packages."""

    _STATE = ("installed_packages",)

    def __init__(self, profile: DeviceProfile, address: IPv4Address,
                 trust_store: Optional[TrustStore] = None) -> None:
        self.profile = profile
        self.address = address
        self.trust_store = trust_store or TrustStore()
        self.installed_packages: Set[str] = set()

    @property
    def device_id(self) -> str:
        return self.profile.device_id

    @property
    def endpoint(self) -> Endpoint:
        return Endpoint(address=self.address)

    def install(self, package: str) -> None:
        self.installed_packages.add(package)

    def has_installed(self, package: str) -> bool:
        return package in self.installed_packages

    def __repr__(self) -> str:
        return f"Device({self.profile.device_id!r}, {self.address})"

    # -- checkpoint/restore ---------------------------------------------------

    def to_state(self) -> dict:
        """Flat JSON form (address as its integer value).  Enough to
        rebuild an equivalent device: IP allocation is a pure RNG draw,
        so reconstruction never disturbs shared allocator state."""
        return {
            "device_id": self.profile.device_id,
            "build": self.profile.build,
            "is_rooted": self.profile.is_rooted,
            "ssid": self.profile.ssid,
            "country": self.profile.country,
            "address": self.address.value,
            "installed": sorted(self.installed_packages),
        }

    @classmethod
    def from_state(cls, state: dict) -> "Device":
        profile = DeviceProfile(
            device_id=str(state["device_id"]),
            build=str(state["build"]),
            is_rooted=bool(state["is_rooted"]),
            ssid=str(state["ssid"]),
            country=str(state["country"]),
        )
        device = cls(profile, IPv4Address(int(state["address"])))
        for package in state["installed"]:
            device.install(str(package))
        return device


class DeviceFactory(Checkpointed):
    """Builds devices with realistic network attachments.

    ``namespace`` scopes the generated device ids (``dev-fyber-000001``)
    so independent factories — one per sharded campaign cell — cannot
    collide without sharing a counter.
    """

    _STATE = ("_counter", "_rng")

    def __init__(self, asn_db: AsnDatabase, rng: random.Random,
                 namespace: str = "") -> None:
        self._asn_db = asn_db
        self._rng = rng
        self._namespace = namespace
        self._counter = 0

    def _next_id(self, prefix: str) -> str:
        self._counter += 1
        if self._namespace:
            return f"{prefix}-{self._namespace}-{self._counter:06d}"
        return f"{prefix}-{self._counter:06d}"

    def real_phone(self, country: str,
                   trust_store: Optional[TrustStore] = None) -> Device:
        """An ordinary handset on an eyeball ASN in ``country``."""
        asns = self._asn_db.asns_in_country(country, kind="eyeball")
        if not asns:
            asns = self._asn_db.eyeball_asns()
        asn = self._rng.choice(asns)
        address = self._asn_db.allocate(asn.number, self._rng)
        profile = DeviceProfile(
            device_id=self._next_id("dev"),
            build=self._rng.choice(REAL_BUILDS),
            is_rooted=False,
            ssid=f"home-wifi-{self._rng.randrange(10 ** 6):06d}",
            country=country,
        )
        return Device(profile, address, trust_store)

    def emulator(self, trust_store: Optional[TrustStore] = None) -> Device:
        """An emulator running in a cloud datacenter."""
        asn = self._rng.choice(self._asn_db.datacenter_asns())
        address = self._asn_db.allocate(asn.number, self._rng)
        profile = DeviceProfile(
            device_id=self._next_id("emu"),
            build=self._rng.choice(EMULATOR_BUILDS),
            is_rooted=True,
            ssid="AndroidWifi",
            country=asn.country,
        )
        return Device(profile, address, trust_store)

    def cloud_phone(self, trust_store: Optional[TrustStore] = None) -> Device:
        """A real-build device that nevertheless connects from a
        datacenter ASN (e.g. traffic routed through a hosted proxy) --
        one of the automation signals the paper reports."""
        asn = self._rng.choice(self._asn_db.datacenter_asns())
        address = self._asn_db.allocate(asn.number, self._rng)
        profile = DeviceProfile(
            device_id=self._next_id("dev"),
            build=self._rng.choice(REAL_BUILDS),
            is_rooted=False,
            ssid=f"proxy-net-{self._rng.randrange(1000):03d}",
            country=asn.country,
        )
        return Device(profile, address, trust_store)

    def farm(self, country: str, size: int, rooted_fraction: float = 0.9,
             trust_store: Optional[TrustStore] = None) -> "DeviceFarm":
        """A device farm: many phones behind one /24, sharing an SSID.

        The paper found 20 installs from one /24 block, 18 of them
        rooted phones sharing a WiFi SSID.
        """
        asns = self._asn_db.asns_in_country(country, kind="eyeball")
        if not asns:
            asns = self._asn_db.eyeball_asns()
        asn = self._rng.choice(asns)
        base = self._asn_db.allocate(asn.number, self._rng)
        ssid = f"farm-wifi-{self._rng.randrange(1000):03d}"
        devices = []
        for index in range(size):
            rooted = self._rng.random() < rooted_fraction
            profile = DeviceProfile(
                device_id=self._next_id("farm"),
                build=self._rng.choice(REAL_BUILDS),
                is_rooted=rooted,
                ssid=ssid if rooted else f"guest-{index}",
                country=country,
            )
            address = (base if index == 0
                       else self._asn_db.allocate_in_block(base, self._rng))
            devices.append(Device(profile, address, trust_store))
        return DeviceFarm(devices=devices, ssid=ssid, base_address=base)


@dataclass
class DeviceFarm:
    """A co-located set of devices scaled for offer-wall farming."""

    devices: List[Device]
    ssid: str
    base_address: IPv4Address

    def __len__(self) -> int:
        return len(self.devices)
