"""Worker-population builders, one mix per IIP.

Section 3 measured, per platform, the mixture of device types behind
purchased installs (emulators, cloud-routed phones, device farms) and
the workers' co-installed apps (most had affiliate apps with "money" /
"cash" / "reward" names).  ``IIPUserMix`` captures those rates and
``PopulationBuilder`` samples a concrete worker population from them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.net.ip import WORLD_COUNTRIES, AsnDatabase
from repro.net.tls import TrustStore
from repro.users.devices import Device, DeviceFactory
from repro.users.worker import Worker, WorkerBehavior

#: Countries crowd workers are drawn from (farms included).
WORKER_COUNTRIES = ("IN", "PH", "ID", "BR", "US", "RU", "VN", "PK", "BD",
                    "EG", "MX", "NG")

#: Package-name stems for miscellaneous (non-affiliate) apps found on
#: worker devices; used to synthesise the 17k-package co-install corpus.
_MISC_APP_STEMS = (
    "com.whatsapp", "com.facebook.katana", "com.instagram.android",
    "com.zhiliaoapp.musically", "com.ucweb.browser", "com.truecaller",
    "com.king.candycrushsaga", "com.supercell.clashofclans",
    "com.netflix.mediaclient", "com.spotify.music", "com.shareit.app",
    "com.flipkart.android", "com.olacabs.customer", "com.paytm.wallet",
)


@dataclass(frozen=True)
class IIPUserMix:
    """Device/behaviour mixture behind one platform's installs."""

    iip_name: str
    behavior: WorkerBehavior
    emulator_fraction: float = 0.004
    cloud_phone_fraction: float = 0.006
    farm_fraction: float = 0.0          # fraction of installs from one farm
    farm_size: int = 20
    farm_rooted_fraction: float = 0.9
    #: probability a worker has >=1 money-keyword affiliate app installed
    affiliate_app_probability: float = 0.5
    #: the platform's most popular affiliate app and its share of workers
    flagship_affiliate: Optional[str] = None
    flagship_share: float = 0.0

    def __post_init__(self) -> None:
        total = self.emulator_fraction + self.cloud_phone_fraction + self.farm_fraction
        if total > 1.0:
            raise ValueError("device-type fractions exceed 1.0")


@dataclass
class PopulationSample:
    """A concrete set of workers drawn from a mix."""

    workers: List[Worker]
    farm_device_ids: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.workers)


class PopulationBuilder:
    """Samples worker populations for campaigns.

    ``namespace`` scopes worker and device ids (``worker-fyber-000001``)
    so that each sharded campaign cell can run its own builder without
    id collisions across cells.
    """

    def __init__(self, asn_db: AsnDatabase, rng: random.Random,
                 affiliate_catalog: Sequence[str] = (),
                 namespace: str = "") -> None:
        self._factory = DeviceFactory(asn_db, rng, namespace=namespace)
        self._rng = rng
        self._affiliate_catalog = list(affiliate_catalog)
        self._namespace = namespace
        self._next_worker = 0

    def _worker_id(self) -> str:
        self._next_worker += 1
        if self._namespace:
            return f"worker-{self._namespace}-{self._next_worker:06d}"
        return f"worker-{self._next_worker:06d}"

    def _install_background_apps(self, device: Device, mix: IIPUserMix) -> None:
        """Give the device a plausible co-installed package list."""
        rng = self._rng
        for stem in rng.sample(_MISC_APP_STEMS, rng.randrange(2, 7)):
            device.install(stem)
        # A long tail of niche apps: across a campaign's worth of
        # workers these accumulate into the paper's 17k-package corpus.
        words = ("game", "photo", "tool", "chat", "quiz", "news", "vpn",
                 "scan", "beat", "farm")
        for _ in range(rng.randrange(5, 13)):
            device.install(f"com.{rng.choice(words)}{rng.randrange(100000):05d}"
                           f".{rng.choice(words)}")
        if rng.random() < mix.affiliate_app_probability and self._affiliate_catalog:
            if (mix.flagship_affiliate
                    and rng.random() < mix.flagship_share / max(
                        mix.affiliate_app_probability, 1e-9)):
                device.install(mix.flagship_affiliate)
            else:
                device.install(rng.choice(self._affiliate_catalog))
            # Semi-professional workers often carry several reward apps.
            extra = rng.randrange(0, 3)
            for package in rng.sample(self._affiliate_catalog,
                                      min(extra, len(self._affiliate_catalog))):
                device.install(package)

    def build(self, mix: IIPUserMix, count: int,
              trust_store: Optional[TrustStore] = None) -> PopulationSample:
        """``count`` workers drawn from the mix, farms included."""
        if count <= 0:
            raise ValueError("population count must be positive")
        rng = self._rng
        workers: List[Worker] = []
        farm_ids: List[str] = []
        farm_quota = int(round(mix.farm_fraction * count))
        if 0 < farm_quota:
            farm = self._factory.farm(
                country=rng.choice(WORKER_COUNTRIES),
                size=min(farm_quota, mix.farm_size),
                rooted_fraction=mix.farm_rooted_fraction,
                trust_store=trust_store)
            for device in farm.devices:
                self._install_background_apps(device, mix)
                workers.append(Worker(self._worker_id(), device, mix.behavior))
                farm_ids.append(device.device_id)
        while len(workers) < count:
            draw = rng.random()
            if draw < mix.emulator_fraction:
                device = self._factory.emulator(trust_store)
            elif draw < mix.emulator_fraction + mix.cloud_phone_fraction:
                device = self._factory.cloud_phone(trust_store)
            else:
                device = self._factory.real_phone(
                    rng.choice(WORKER_COUNTRIES), trust_store=trust_store)
            self._install_background_apps(device, mix)
            workers.append(Worker(self._worker_id(), device, mix.behavior))
        return PopulationSample(workers=workers, farm_device_ids=farm_ids)
