"""Ground-truth generation for detector training and evaluation.

The paper's point is that its measurement methodology yields *labelled*
data: installs known to be incentivized (they came from monitored
offers).  This module synthesises exactly that kind of labelled corpus
from the repo's own population models -- organic users installing apps
on their own schedule with genuine engagement, and campaign workers
installing in bursts with bare-minimum engagement, farms included --
and hands it to the detector as an :class:`InstallLog`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Set, Tuple

from repro.detection.events import InstallLog
from repro.detection.live import device_event
from repro.net.ip import AsnDatabase
from repro.users.devices import Device, DeviceFactory


#: The corpus's fixed shape.
ORGANIC_INSTALLS_PER_DEVICE = (2, 6)
POPULAR_APPS = 30
CAMPAIGN_APPS = 4
CAMPAIGN_WINDOW_HOURS = 3.0
FARM_CAMPAIGN_INDEX = 0            # which campaign uses a device farm
FARM_SIZE = 15


@dataclass(frozen=True)
class TrainingCorpusConfig:
    organic_devices: int = 400
    workers_per_campaign: int = 60
    days: int = 14


def build_training_corpus(seed: int = 1,
                          config: TrainingCorpusConfig = TrainingCorpusConfig()
                          ) -> Tuple[InstallLog, Set[str]]:
    """A labelled install log: returns (log, incentivized device ids)."""
    rng = random.Random(seed)
    factory = DeviceFactory(AsnDatabase(), rng)
    log = InstallLog()
    popular = [f"com.popular.app{i:03d}.x" for i in range(POPULAR_APPS)]
    advertised = [f"com.advertised.app{i:02d}.x"
                  for i in range(CAMPAIGN_APPS)]

    # Organic users: installs spread across days/hours, real engagement,
    # and the occasional organic install of an advertised app too.
    for _ in range(config.organic_devices):
        device = factory.real_phone(rng.choice(("US", "DE", "IN", "BR")))
        count = rng.randint(*ORGANIC_INSTALLS_PER_DEVICE)
        for _ in range(count):
            pool = popular if rng.random() < 0.9 else advertised
            log.add(device_event(
                device, rng.choice(pool),
                day=rng.randrange(config.days),
                hour=rng.uniform(0, 24.0),
                opened=rng.random() < 0.95,
                engagement=rng.expovariate(1 / 600.0),
            ))

    # Campaign workers: each campaign drains within a few hours, most
    # participants barely open the app, and workers take several offers.
    incentivized: Set[str] = set()
    worker_pool: List[Device] = []
    for index, package in enumerate(advertised):
        start_day = rng.randrange(1, config.days - 1)
        start_hour = rng.uniform(6.0, 12.0)
        devices: List[Device] = []
        if index == FARM_CAMPAIGN_INDEX:
            farm = factory.farm("PH", size=FARM_SIZE)
            devices.extend(farm.devices)
        while len(devices) < config.workers_per_campaign:
            # Semi-professional workers reappear across campaigns.
            if worker_pool and rng.random() < 0.75:
                candidate = rng.choice(worker_pool)
                if any(candidate.device_id == d.device_id for d in devices):
                    continue
                devices.append(candidate)
            else:
                fresh = factory.real_phone(
                    rng.choice(("IN", "PH", "ID", "BD")))
                worker_pool.append(fresh)
                devices.append(fresh)
        for device in devices:
            offset = rng.uniform(0.0, CAMPAIGN_WINDOW_HOURS)
            hour = (start_hour + offset) % 24.0
            day = start_day + int((start_hour + offset) // 24.0)
            opened = rng.random() < 0.8
            log.add(device_event(device, package, day, hour, opened,
                                 engagement=rng.uniform(20.0, 120.0)))
            incentivized.add(device.device_id)
    return log, incentivized
