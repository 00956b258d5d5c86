"""CopyCatch-style lockstep detection.

Three signals, combined into device-level suspicion:

1. **Install bursts** -- many devices install the same app within a
   short window (incentivized campaigns drain in hours; the honey app's
   Fyber and ayeT purchases landed within two hours).
2. **Minimal engagement** -- burst participants who barely open the app
   (the paper's "bare minimum effort to complete the offer").
3. **Network colocation** -- many burst devices behind one /24 or one
   SSID (device farms).

A device is flagged when it participates in at least
``min_bursts_per_device`` low-engagement bursts -- semi-professional
crowd workers work many offers, organic users occasionally land inside
a burst by coincidence but not repeatedly.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.detection.events import DeviceInstallEvent, InstallLog


@dataclass(frozen=True)
class LockstepCluster:
    """One suspicious install burst for one app."""

    package: str
    start_hour: float            # absolute hours (day * 24 + hour)
    end_hour: float
    device_ids: FrozenSet[str]
    low_engagement_fraction: float
    dominant_slash24: Optional[str]     # set when network-colocated
    dominant_ssid_fraction: float

    @property
    def size(self) -> int:
        return len(self.device_ids)

    @property
    def span_hours(self) -> float:
        return self.end_hour - self.start_hour


#: Share of a burst behind one /24 that marks it network-colocated.
COLOCATION_FRACTION = 0.5


@dataclass(frozen=True)
class DetectorConfig:
    """Thresholds; defaults tuned on honey-app ground truth."""

    burst_window_hours: float = 6.0
    min_burst_size: int = 12
    low_engagement_seconds: float = 180.0
    min_low_engagement_fraction: float = 0.5
    min_bursts_per_device: int = 2

    def __post_init__(self) -> None:
        if self.burst_window_hours <= 0:
            raise ValueError("burst window must be positive")
        if self.min_burst_size < 2:
            raise ValueError("a burst needs at least two devices")


def build_cluster(package: str, window: List[DeviceInstallEvent],
                  config: DetectorConfig) -> Optional[LockstepCluster]:
    """Score one maximal burst window; ``None`` when the window looks
    organic (too much real engagement).

    Shared by the batch :class:`LockstepDetector` and the online
    :class:`~repro.detection.stream.OnlineLockstepDetector` — both must
    score identical windows identically for the batch-vs-stream
    equivalence guarantee to hold — and by
    :class:`~repro.detection.hardened.HardenedLockstepDetector`, which
    passes its own engagement thresholds.
    """
    low = [event for event in window
           if not event.opened
           or event.engagement_seconds < config.low_engagement_seconds]
    low_fraction = len(low) / len(window)
    if low_fraction < config.min_low_engagement_fraction:
        return None
    blocks = Counter(event.ip_slash24 for event in window)
    block, block_count = blocks.most_common(1)[0]
    dominant_block = (block if block_count / len(window)
                      >= COLOCATION_FRACTION else None)
    ssids = Counter(event.ssid_hash for event in window)
    _, ssid_count = ssids.most_common(1)[0]
    return LockstepCluster(
        package=package,
        start_hour=window[0].timestamp_hours,
        end_hour=window[-1].timestamp_hours,
        device_ids=frozenset(event.device_id for event in window),
        low_engagement_fraction=low_fraction,
        dominant_slash24=dominant_block,
        dominant_ssid_fraction=ssid_count / len(window),
    )


def scan_bursts(package: str, events: List[DeviceInstallEvent],
                config: DetectorConfig, horizon: float = math.inf,
                ) -> Tuple[List[LockstepCluster], int]:
    """Greedy maximal burst windows over one package's time-sorted
    events; returns the scored clusters and how many leading events the
    scan consumed.

    A window anchored at an event is scanned only once ``horizon`` is
    past ``anchor + burst_window_hours``: no event at or beyond the
    horizon can join it.  The batch :class:`LockstepDetector` scans the
    whole log at the default infinite horizon; the online
    :class:`~repro.detection.stream.OnlineLockstepDetector` scans its
    pending suffix at the stream watermark and keeps the unconsumed
    rest.  One loop for both is what makes online == batch hold.
    """
    clusters: List[LockstepCluster] = []
    start = 0
    while start < len(events):
        anchor = events[start].timestamp_hours
        if horizon <= anchor + config.burst_window_hours:
            break  # a future event could still join this window
        end = start
        while (end + 1 < len(events)
               and events[end + 1].timestamp_hours - anchor
               <= config.burst_window_hours):
            end += 1
        if end - start + 1 >= config.min_burst_size:
            cluster = build_cluster(package, events[start:end + 1], config)
            if cluster is not None:
                clusters.append(cluster)
            start = end + 1
        else:
            start += 1
    return clusters, start


def cluster_weight(cluster: LockstepCluster) -> int:
    """Participation weight of one burst (colocation counts double)."""
    return 2 if cluster.dominant_slash24 else 1


class LockstepDetector:
    """Finds lockstep clusters and flags their recurring participants."""

    def __init__(self, config: Optional[DetectorConfig] = None) -> None:
        self.config = config or DetectorConfig()

    # -- burst discovery -------------------------------------------------------

    def find_bursts(self, log: InstallLog) -> List[LockstepCluster]:
        """Sliding-window burst discovery, per app."""
        clusters: List[LockstepCluster] = []
        for package in log.packages():
            found, _ = scan_bursts(package, log.events_for_package(package),
                                   self.config)
            clusters.extend(found)
        return clusters

    # -- device flagging ------------------------------------------------------

    def flag_devices(self, log: InstallLog) -> Set[str]:
        """Devices participating in repeated lockstep bursts."""
        participation: Counter = Counter()
        for cluster in self.find_bursts(log):
            weight = cluster_weight(cluster)
            for device_id in cluster.device_ids:
                participation[device_id] += weight
        return {device_id for device_id, count in participation.items()
                if count >= self.config.min_bursts_per_device}

    def suspicion_scores(self, log: InstallLog) -> Dict[str, float]:
        """Graded per-device scores (for ranking / thresholds)."""
        scores: Dict[str, float] = defaultdict(float)
        for cluster in self.find_bursts(log):
            base = cluster.low_engagement_fraction
            if cluster.dominant_slash24:
                base += 0.5
            if cluster.dominant_ssid_fraction > 0.5:
                base += 0.5
            for device_id in cluster.device_ids:
                scores[device_id] += base
        return dict(scores)

    def flag_apps(self, log: InstallLog,
                  min_clusters: int = 2) -> List[str]:
        """Apps repeatedly receiving lockstep bursts -- the store-side
        policy-violation candidates the paper's methodology surfaces."""
        per_app: Counter = Counter()
        for cluster in self.find_bursts(log):
            per_app[cluster.package] += 1
        return sorted(package for package, count in per_app.items()
                      if count >= min_clusters)
