"""InstallEventBus under service duty: fan-out and watermark."""

import pytest

from repro.detection.events import DeviceInstallEvent
from repro.detection.lockstep import DetectorConfig
from repro.detection.stream import InstallEventBus, OnlineLockstepDetector


def event(device_id, package="com.app", day=0, hour=0.0):
    return DeviceInstallEvent(
        device_id=device_id,
        package=package,
        day=day,
        hour=hour,
        ip_slash24="198.51.100.0/24",
        ssid_hash="ssid:cafef00d",
        opened=True,
        engagement_seconds=30.0,
    )


class TestFanOut:
    def test_every_subscriber_sees_every_event_in_order(self):
        bus = InstallEventBus()
        first, second = [], []
        bus.subscribe(first.append)
        bus.subscribe(second.append)
        events = [event(f"d{i}", hour=float(i)) for i in range(4)]
        bus.publish_all(events)
        assert first == events
        assert second == events
        assert bus.events_published == 4

    def test_late_subscriber_without_replay_misses_history(self):
        bus = InstallEventBus()
        early, late = [], []
        bus.subscribe(early.append)
        bus.publish(event("d0"))
        bus.subscribe(late.append)
        bus.publish(event("d1", hour=1.0))
        assert [e.device_id for e in early] == ["d0", "d1"]
        assert [e.device_id for e in late] == ["d1"]


class TestWatermarkUnderQueries:
    def test_watermark_moves_monotonically_between_queries(self):
        config = DetectorConfig(min_burst_size=3, burst_window_hours=1.0,
                                min_bursts_per_device=1)
        detector = OnlineLockstepDetector(config)
        bus = InstallEventBus()
        bus.subscribe(detector.ingest)
        watermarks = [detector.watermark_hours]
        for step in range(6):
            bus.publish(event(f"d{step % 3}", hour=float(step)))
            # Interleave reads the way the serve flagged endpoint does.
            detector.flagged_packages()
            detector.flagged_devices
            watermarks.append(detector.watermark_hours)
        assert watermarks[0] == float("-inf")
        assert watermarks[1:] == sorted(watermarks[1:])
        assert watermarks[-1] == 5.0

    def test_regressing_event_is_rejected(self):
        detector = OnlineLockstepDetector()
        detector.ingest(event("d0", hour=6.0))
        with pytest.raises(ValueError, match="watermark"):
            detector.ingest(event("d1", hour=2.0))
