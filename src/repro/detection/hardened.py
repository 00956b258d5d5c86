"""Hardened lockstep detection: adaptive windows + co-install graph.

The naive :class:`~repro.detection.lockstep.LockstepDetector` assumes
campaigns drain into tight fixed-width bursts of barely-engaged
devices.  Evasive campaigns break both assumptions: they scatter
conversions across split sub-bursts over most of a day (so no 6-hour
window reaches ``min_burst_size``) and dress a slice of workers up with
genuine-looking engagement (so windows fail the low-engagement
fraction).  This detector counters each move:

* **Adaptive windows** — bursts are density-chained, not fixed-width:
  a cluster extends while consecutive installs of the same app arrive
  within ``MAX_GAP_HOURS`` of each other.  A scattered campaign still
  delivers far faster than the organic trickle, so its sub-bursts chain
  into one cluster; organic installs arrive hours apart and never
  chain.
* **Co-install graph** — devices are nodes, with an edge when two
  burst participants share ``MIN_SHARED_PACKAGES`` installed apps.
  Worker pools reuse devices across campaigns, so real workers
  accumulate graph degree; an organic device that coincidentally lands
  inside a cluster shares nothing with the workers and stays isolated.
  This is what rescues precision once the engagement filter is
  loosened to survive cover traffic.

The thresholds are *seeded from the honey arm*:
:func:`calibrate_from_honey` re-derives the two honey-calibrated ones
from honey ground truth (the one place the methodology owns every
label), and the constants equal that calibration at the pinned bench
seed.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from typing import Dict, List, Set, Tuple

from repro.detection.events import DeviceInstallEvent, InstallLog
from repro.detection.lockstep import (
    DetectorConfig,
    LockstepCluster,
    build_cluster,
    cluster_weight,
)


#: Thresholds.  ``MAX_GAP_HOURS`` and ``LOW_ENGAGEMENT_SECONDS`` equal
#: what :func:`calibrate_from_honey` derives on the honey arm.
MAX_GAP_HOURS = 2.0                 # density chaining tolerance
MIN_CLUSTER_SIZE = 8                # organic co-arrival bound
LOW_ENGAGEMENT_SECONDS = 120.0
MIN_LOW_ENGAGEMENT_FRACTION = 0.25  # survives cover traffic
MIN_SHARED_PACKAGES = 2             # co-install graph edge threshold
BURST_WEIGHT = 1.0
GRAPH_WEIGHT = 1.0
FLAG_THRESHOLD = 2.0                # burst + graph evidence combined

#: Each chained window is scored as the naive detector scores its
#: bursts, under the hardened engagement thresholds.
_SCORING = DetectorConfig(
    low_engagement_seconds=LOW_ENGAGEMENT_SECONDS,
    min_low_engagement_fraction=MIN_LOW_ENGAGEMENT_FRACTION)


def calibrate_from_honey(log: InstallLog,
                         incentivized: Set[str]) -> Tuple[float, float]:
    """``(max_gap_hours, low_engagement_seconds)`` from honey ground truth.

    The honey arm is the one dataset where every label is known, so it
    anchors what *paid* install behaviour looks like — using
    observables that do not move with the honey purchase volume:

    * ``low_engagement_seconds`` — one minute above the honey open-only
      engagement floor (the median opened paid install; workers who
      click past the task are still paid installs), rounded up to the
      minute.
    * ``max_gap_hours`` — the p95 same-``(package, day)`` burst *span*
      (set by campaign delivery windows, not volume, so it is
      scale-stable where inter-install gaps are not) divided by
      ``MIN_CLUSTER_SIZE``, rounded up to the half hour: a campaign
      throttled sparser than that delivers fewer than a cluster's worth
      of installs across the whole span and is below the clustering
      radar anyway.

    ``MIN_CLUSTER_SIZE`` itself is structural — a bound on how many
    organic installs of one app plausibly co-arrive — which honey (all
    paid, no organic) cannot estimate.  At the pinned bench seed the
    calibration reproduces ``MAX_GAP_HOURS`` and
    ``LOW_ENGAGEMENT_SECONDS`` exactly.
    """
    paid = [event for event in log.events()
            if event.device_id in incentivized]
    engagements = sorted(event.engagement_seconds for event in paid
                         if event.opened)
    if not engagements:
        raise ValueError("honey log carries no opened paid installs")
    median = engagements[len(engagements) // 2]
    low_engagement = math.ceil((median + 60.0) / 60.0) * 60.0
    per_day: Dict[Tuple[str, int], List[float]] = defaultdict(list)
    for event in paid:
        per_day[(event.package, event.day)].append(event.timestamp_hours)
    spans = sorted(max(hours) - min(hours)
                   for hours in per_day.values() if len(hours) > 1)
    if not spans:
        raise ValueError("honey log has no same-day campaign bursts")
    p95_span = spans[min(len(spans) - 1, int(0.95 * len(spans)))]
    max_gap = max(0.5, math.ceil(p95_span / MIN_CLUSTER_SIZE / 0.5) * 0.5)
    return max_gap, low_engagement


class HardenedLockstepDetector:
    """Batch detector over an :class:`InstallLog` (e.g. ``hook.log``)."""

    def __init__(self, flag_threshold: float = FLAG_THRESHOLD) -> None:
        self.flag_threshold = flag_threshold

    # -- adaptive bursts ------------------------------------------------------

    def find_bursts(self, log: InstallLog) -> List[LockstepCluster]:
        clusters: List[LockstepCluster] = []
        for package in log.packages():
            events = log.events_for_package(package)
            events = sorted(events, key=lambda e: (e.timestamp_hours,
                                                   e.device_id))
            clusters.extend(self._chain(package, events))
        return clusters

    def _chain(self, package: str, events: List[DeviceInstallEvent]
               ) -> List[LockstepCluster]:
        clusters: List[LockstepCluster] = []
        start = 0
        for index in range(1, len(events) + 1):
            chained = (index < len(events)
                       and events[index].timestamp_hours
                       - events[index - 1].timestamp_hours
                       <= MAX_GAP_HOURS)
            if chained:
                continue
            window = events[start:index]
            start = index
            if len(window) < MIN_CLUSTER_SIZE:
                continue
            cluster = build_cluster(package, window, _SCORING)
            if cluster is not None:
                clusters.append(cluster)
        return clusters

    # -- co-install graph -----------------------------------------------------

    def graph_degrees(self, log: InstallLog,
                      candidates: Set[str]) -> Dict[str, int]:
        """Degree of each candidate in the shared-package graph.

        Only devices installing ``MIN_SHARED_PACKAGES``-plus apps can
        carry an edge, so the pair loop runs over the (small) multi-app
        population, not the whole organic background.
        """
        multi = {device: log.packages_of(device) for device in candidates
                 if len(log.packages_of(device)) >= MIN_SHARED_PACKAGES}
        by_package: Dict[str, List[str]] = defaultdict(list)
        for device, packages in multi.items():
            for package in packages:
                by_package[package].append(device)
        shared: Counter = Counter()
        for devices in by_package.values():
            devices.sort()
            for i, left in enumerate(devices):
                for right in devices[i + 1:]:
                    shared[(left, right)] += 1
        degrees: Counter = Counter()
        for (left, right), count in shared.items():
            if count >= MIN_SHARED_PACKAGES:
                degrees[left] += 1
                degrees[right] += 1
        return {device: degrees.get(device, 0) for device in candidates}

    # -- scoring / flagging ---------------------------------------------------

    def suspicion_scores(self, log: InstallLog) -> Dict[str, float]:
        """Burst participation + co-install degree, per device."""
        participation: Counter = Counter()
        for cluster in self.find_bursts(log):
            weight = cluster_weight(cluster)
            for device_id in cluster.device_ids:
                participation[device_id] += weight
        candidates = set(participation)
        degrees = self.graph_degrees(log, candidates)
        return {device: (BURST_WEIGHT * participation[device]
                         + GRAPH_WEIGHT * min(degrees[device], 4))
                for device in candidates}

    def flag_devices(self, log: InstallLog) -> Set[str]:
        return {device for device, score
                in self.suspicion_scores(log).items()
                if score >= self.flag_threshold}
