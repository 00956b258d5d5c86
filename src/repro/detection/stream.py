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
into its outputs.  Both pipelines publish events post-barrier, after
shard results have been merged in canonical order, so ``--shards N``
and same-seed chaos runs feed the bus byte-identical streams — which is
what makes ``repro detect`` exports byte-identical across shard counts.

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
window.  Closed windows are scored with the same
:func:`~repro.detection.lockstep.build_cluster` the batch detector
uses, and ``finalize()`` flushes the undecided suffix with an infinite
horizon, mirroring the batch scan's end-of-log behaviour.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Set

from repro.detection.events import DeviceInstallEvent
from repro.detection.lockstep import (
    DetectorConfig,
    LockstepCluster,
    build_cluster,
    cluster_weight,
)
from repro.obs import NULL_OBS, Observability

Subscriber = Callable[[DeviceInstallEvent], None]


class InstallEventBus:
    """Fan-out for live install events.

    Sources (the honey campaigns, the wild monitor bridge, a replayed
    corpus) publish; subscribers (the online detector, an
    :class:`~repro.detection.events.InstallLog` collector) consume.
    ``source`` labels the ``detection.events_ingested`` counter so the
    obs export shows which pipeline fed the detector.

    ``retain=True`` keeps published events so subscribers that arrive
    late (a dashboard attaching to a running service, a second detector
    spun up for comparison) can ask for a replay of the history before
    receiving live traffic.  ``retain_cap`` bounds that buffer: once it
    is full the oldest events are evicted (counted into
    ``detection.events_evicted``), so a long-lived serve run holds a
    sliding window instead of growing without limit.  A late subscriber
    then replays only the retained suffix — still deterministic, just
    explicitly partial, which is why the cap is opt-in.
    """

    def __init__(self, obs: Optional[Observability] = None,
                 source: str = "live", retain: bool = False,
                 retain_cap: Optional[int] = None) -> None:
        if retain_cap is not None and retain_cap < 1:
            raise ValueError("retain_cap must be at least 1")
        self.obs = obs or NULL_OBS
        self.source = source
        self.events_published = 0
        self.events_evicted = 0
        self.retain_cap = retain_cap
        self._subscribers: List[Subscriber] = []
        self._retained: Optional[List[DeviceInstallEvent]] = (
            [] if retain else None)

    @property
    def retains_events(self) -> bool:
        return self._retained is not None

    @property
    def retained_events(self) -> List[DeviceInstallEvent]:
        return list(self._retained or ())

    def subscribe(self, subscriber: Subscriber,
                  replay: bool = False) -> None:
        """Attach a subscriber; with ``replay=True`` it first receives
        every retained event in publication order, so a late subscriber
        converges to the same state as one attached from the start."""
        if replay:
            if self._retained is None:
                raise ValueError(
                    "replay requested but this bus does not retain "
                    "events (construct it with retain=True)")
            for event in self._retained:
                subscriber(event)
        self._subscribers.append(subscriber)

    def publish(self, event: DeviceInstallEvent) -> None:
        self.events_published += 1
        if self._retained is not None:
            self._retained.append(event)
            if (self.retain_cap is not None
                    and len(self._retained) > self.retain_cap):
                overflow = len(self._retained) - self.retain_cap
                del self._retained[:overflow]
                self.events_evicted += overflow
                self.obs.metrics.inc("detection.events_evicted", overflow,
                                     source=self.source)
        self.obs.metrics.inc("detection.events_ingested", source=self.source)
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
        config = self.config
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
                    self._emit(cluster)
                start = end + 1
            else:
                start += 1
        if start:
            del events[:start]

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

    # -- checkpoint/restore ---------------------------------------------------

    def state_dict(self) -> Dict[str, object]:
        """The whole fold state: emitted clusters, the undecided
        per-package suffixes, the watermark, and flag bookkeeping."""
        return {
            "events_seen": self.events_seen,
            "version": self.version,
            "watermark": (None if self._watermark == float("-inf")
                          else self._watermark),
            "finalized": self._finalized,
            "clusters": [_cluster_to_state(c) for c in self.clusters],
            "pending": {package: [event.to_dict() for event in events]
                        for package, events in sorted(self._pending.items())
                        if events},
            "participation": dict(sorted(self._participation.items())),
            "flagged": sorted(self._flagged),
        }

    def load_state(self, state: Dict[str, object]) -> None:
        self.events_seen = int(state["events_seen"])  # type: ignore[arg-type]
        self.version = int(state.get("version", 0))  # type: ignore[arg-type]
        watermark = state["watermark"]
        self._watermark = (float("-inf") if watermark is None
                           else float(watermark))  # type: ignore[arg-type]
        self._finalized = bool(state["finalized"])
        self.clusters = [_cluster_from_state(item)
                         for item in state["clusters"]]  # type: ignore[union-attr]
        self._pending = defaultdict(list)
        for package, events in state["pending"].items():  # type: ignore[union-attr]
            self._pending[package] = [DeviceInstallEvent.from_dict(item)
                                      for item in events]
        self._participation = Counter(
            {str(k): v for k, v in state["participation"].items()})  # type: ignore[union-attr]
        self._flag_order = list(state["flagged"])  # type: ignore[arg-type]
        self._flagged = set(self._flag_order)

    # -- queries -------------------------------------------------------------

    def flagged_packages(self, min_clusters: int = 2) -> List[str]:
        """Packages repeatedly hit by lockstep bursts so far."""
        per_app: Counter = Counter()
        for cluster in self.clusters:
            per_app[cluster.package] += 1
        return sorted(package for package, count in per_app.items()
                      if count >= min_clusters)


def _cluster_to_state(cluster: LockstepCluster) -> Dict[str, object]:
    return {
        "package": cluster.package,
        "start_hour": cluster.start_hour,
        "end_hour": cluster.end_hour,
        "device_ids": sorted(cluster.device_ids),
        "low_engagement_fraction": cluster.low_engagement_fraction,
        "dominant_slash24": cluster.dominant_slash24,
        "dominant_ssid_fraction": cluster.dominant_ssid_fraction,
    }


def _cluster_from_state(state: Dict[str, object]) -> LockstepCluster:
    return LockstepCluster(
        package=str(state["package"]),
        start_hour=float(state["start_hour"]),  # type: ignore[arg-type]
        end_hour=float(state["end_hour"]),      # type: ignore[arg-type]
        device_ids=frozenset(state["device_ids"]),  # type: ignore[arg-type]
        low_engagement_fraction=float(
            state["low_engagement_fraction"]),  # type: ignore[arg-type]
        dominant_slash24=state["dominant_slash24"],  # type: ignore[arg-type]
        dominant_ssid_fraction=float(
            state["dominant_ssid_fraction"]),  # type: ignore[arg-type]
    )
