"""Evasion adapters: how campaigns scatter their detection footprint.

The wild pipeline's evasion lives inside
:class:`~repro.detection.live.WildEventBridge` (the bridge owns the
per-day conversion RNG, so the scatter happens where the events are
born).  The honey pipeline's RNG streams are byte-frozen — drawing
evasion randomness from them would perturb the sealed campaign exports
— so its evasion is a *post-hoc transform* of the detection events: the
:class:`EvasiveLiveDetection` hook jitters each event inside its day
and upgrades a slice of engagements to cover traffic, with every draw
derived per ``(device, package, day)`` off a dedicated seed.  The
transform happens before the bus sees anything, so the online-equals-
batch invariant still holds: both detectors consume the identical
evaded stream.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable

from repro.detection.events import DeviceInstallEvent
from repro.detection.live import (COVER_ENGAGEMENT_RANGE, COVER_PROBABILITY,
                                  LiveDetection)
from repro.parallel import derive_rng

#: Post-hoc jitter for honey events, hours either side.
HONEY_JITTER_HOURS = 6.0


def evade_event(event: DeviceInstallEvent, seed: int) -> DeviceInstallEvent:
    """One event, jittered and possibly dressed up as a real user.

    Deterministic per ``(device, package, day)``: the same event always
    evades the same way, whatever order batches arrive in.
    """
    rng = derive_rng(seed, event.device_id, event.package, event.day)
    jitter = rng.uniform(-HONEY_JITTER_HOURS, HONEY_JITTER_HOURS)
    hour = min(23.999, max(0.0, event.hour + jitter))
    opened = event.opened
    engagement = event.engagement_seconds
    if rng.random() < COVER_PROBABILITY:
        opened = True
        engagement = max(engagement, rng.uniform(*COVER_ENGAGEMENT_RANGE))
    return dataclasses.replace(event, hour=hour, opened=opened,
                               engagement_seconds=engagement)


class EvasiveLiveDetection(LiveDetection):
    """A ``detection=`` hook whose incoming events evade first."""

    def __init__(self, seed: int, **kwargs) -> None:
        super().__init__(**kwargs)
        self.evasion_seed = seed

    def publish_batch(self, events: Iterable[DeviceInstallEvent]) -> None:
        super().publish_batch(
            evade_event(event, self.evasion_seed) for event in events)
