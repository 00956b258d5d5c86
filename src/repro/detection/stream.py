"""Streaming lockstep detection: the event bus and the online detector.

The batch :class:`~repro.detection.lockstep.LockstepDetector` needs the
whole install log up front.  A store-side defense does not get that
luxury: installs arrive one at a time, and flagging a device farm three
months after the campaign drained is useless.  This module provides the
live half of the detection subsystem:

* :class:`InstallEventBus` — a tiny publish/subscribe fan-out that both
  measurement pipelines emit :class:`DeviceInstallEvent`\\ s onto.  The
  bus counts every event into ``detection.events_ingested{source=...}``
  and forwards it to every subscriber in subscription order.
* :class:`OnlineLockstepDetector` — maintains a sliding burst window
  per package and flags devices *incrementally* as events arrive.  On
  any event log delivered in non-decreasing timestamp order it
  converges to exactly the flagged set the batch detector computes on
  the same log (``tests/detection/test_stream.py`` proves the
  equivalence).

Determinism contract
--------------------
The online detector is a pure fold over the event sequence: no clocks,
no randomness, no iteration over unordered containers that could leak
into its outputs.  Both pipelines publish events only after their
task results have been merged in canonical order, so same-seed runs,
clean or under chaos, feed the bus byte-identical streams — which is
what makes ``repro detect`` exports byte-identical.

Why convergence holds
---------------------
The batch algorithm sorts each package's events by timestamp (a stable
sort, so ties keep arrival order) and scans greedy maximal windows.
The online detector keeps the not-yet-decided suffix of each package's
stream in a buffer and advances a global watermark (the largest
timestamp published so far).  A window anchored at event ``s`` is
*closed* — provably maximal — once the watermark passes
``s.timestamp + burst_window_hours``: every future event carries a
timestamp at or beyond the watermark, so none of them can extend the
window.  Both detectors scan with the one loop,
:func:`~repro.detection.lockstep.scan_bursts`: the online one at the
watermark over its pending suffix, the batch one at an infinite
horizon over each package's whole log, and ``finalize()`` flushes the
undecided suffix at that same infinite horizon.

Being a pure fold, the detector is never checkpointed: a resumed
pipeline rebuilds it by republishing the install log it checkpoints
(:meth:`~repro.detection.live.LiveDetection.load_state`), as serve
rebuilds its own by replaying the write-ahead log.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.detection.events import DeviceInstallEvent
from repro.detection.lockstep import (
    DetectorConfig,
    LockstepCluster,
    cluster_weight,
    scan_bursts,
)
from repro.obs import NULL_OBS, Observability, label_key

Subscriber = Callable[[DeviceInstallEvent], None]


class InstallEventBus:
    """Fan-out for live install events.

    Sources (the honey campaigns, the wild monitor bridge, a replayed
    corpus) publish; subscribers (the online detector, an
    :class:`~repro.detection.events.InstallLog` collector) consume.
    ``source`` labels the ``detection.events_ingested`` counter so the
    obs export shows which pipeline fed the detector.
    """

    def __init__(self, obs: Optional[Observability] = None,
                 source: str = "live") -> None:
        self.obs = obs or NULL_OBS
        self.source = source
        self._ingested_key = label_key({"source": source})
        self.events_published = 0
        self._subscribers: List[Subscriber] = []

    def subscribe(self, subscriber: Subscriber) -> None:
        self._subscribers.append(subscriber)

    def publish(self, event: DeviceInstallEvent) -> None:
        self.events_published += 1
        self.obs.metrics.inc_keyed("detection.events_ingested",
                                   self._ingested_key)
        for subscriber in self._subscribers:
            subscriber(event)

    def publish_all(self, events: Iterable[DeviceInstallEvent]) -> None:
        """Publish a batch in the caller's order (callers sort batches
        by timestamp before handing them over — see the pipelines)."""
        for event in events:
            self.publish(event)


class OnlineLockstepDetector:
    """Incremental lockstep detection over a timestamp-ordered stream.

    ``ingest`` accepts one event at a time and may flag devices
    immediately; ``finalize`` flushes the pending windows and returns
    the complete flagged set.  Requires a globally non-decreasing
    timestamp stream (both pipelines guarantee it by publishing each
    simulation day's batch sorted by timestamp); a regression is
    rejected with ``ValueError`` rather than silently corrupting the
    burst windows.
    """

    def __init__(self, config: Optional[DetectorConfig] = None,
                 obs: Optional[Observability] = None) -> None:
        self.config = config or DetectorConfig()
        self.obs = obs or NULL_OBS
        self.clusters: List[LockstepCluster] = []
        self.events_seen = 0
        #: Bumped every time a cluster is emitted — i.e. whenever any
        #: ``flagged`` query response could differ from the previous
        #: one.  The serve tier's keyed response cache uses it as the
        #: ``flagged`` endpoint's freshness token, so ingest batches
        #: that close no window stop invalidating query responses.
        self.version = 0
        self._pending: Dict[str, List[DeviceInstallEvent]] = defaultdict(list)
        self._watermark = float("-inf")
        self._participation: Counter = Counter()
        self._flagged: Set[str] = set()
        #: ``_flagged`` in flagging order (append-only), so incremental
        #: consumers read only the devices flagged since their last look.
        self._flag_order: List[str] = []
        self._finalized = False

    # -- streaming interface -------------------------------------------------

    @property
    def flagged_devices(self) -> Set[str]:
        """Devices flagged so far (grows monotonically)."""
        return set(self._flagged)

    @property
    def flagged_count(self) -> int:
        return len(self._flag_order)

    def is_flagged(self, device_id: str) -> bool:
        return device_id in self._flagged

    def flagged_since(self, start: int) -> List[str]:
        """Devices flagged after the first ``start`` (flagging order)."""
        return self._flag_order[start:]

    @property
    def watermark_hours(self) -> float:
        """The stream watermark: the largest timestamp ingested so far
        (``-inf`` before the first event).  Non-decreasing by
        construction; queries interleaved with ingestion see it move
        monotonically."""
        return self._watermark

    def ingest(self, event: DeviceInstallEvent) -> None:
        timestamp = event.timestamp_hours
        if timestamp < self._watermark:
            raise ValueError(
                f"event for {event.package!r} at t={timestamp}h arrives "
                f"behind the stream watermark ({self._watermark}h); the "
                "online detector requires a non-decreasing timestamp stream")
        self._watermark = timestamp
        self._finalized = False
        self.events_seen += 1
        self._pending[event.package].append(event)
        self._drain(event.package, horizon=self._watermark)

    def finalize(self) -> Set[str]:
        """Flush every pending window; returns the final flagged set.

        Idempotent: a second call without new events is a no-op.  The
        returned set equals ``LockstepDetector(config).flag_devices``
        on the same event log.
        """
        if not self._finalized:
            for package in sorted(self._pending):
                self._drain(package, horizon=float("inf"))
            self._finalized = True
        return set(self._flagged)

    # -- window management ---------------------------------------------------

    def _drain(self, package: str, horizon: float) -> None:
        """Consume every window of ``package`` that is closed under
        ``horizon`` (no event at or beyond ``horizon`` can extend it)."""
        events = self._pending[package]
        clusters, consumed = scan_bursts(package, events, self.config,
                                         horizon)
        for cluster in clusters:
            self._emit(cluster)
        if consumed:
            del events[:consumed]

    def _emit(self, cluster: LockstepCluster) -> None:
        self.clusters.append(cluster)
        self.version += 1
        self.obs.metrics.inc("detection.clusters_flagged")
        weight = cluster_weight(cluster)
        threshold = self.config.min_bursts_per_device
        newly_flagged = 0
        for device_id in cluster.device_ids:
            before = self._participation[device_id]
            self._participation[device_id] = before + weight
            if before < threshold <= before + weight:
                self._flagged.add(device_id)
                self._flag_order.append(device_id)
                newly_flagged += 1
        if newly_flagged:
            self.obs.metrics.inc("detection.flagged_devices", newly_flagged)

    # -- queries -------------------------------------------------------------

    def flagged_packages(self, min_clusters: int = 2) -> List[str]:
        """Packages repeatedly hit by lockstep bursts so far."""
        per_app: Counter = Counter()
        for cluster in self.clusters:
            per_app[cluster.package] += 1
        return sorted(package for package, count in per_app.items()
                      if count >= min_clusters)
