"""``DetectionService.evaluate_now`` as a running fold.

The fold reads only the ids added since its last call, so these tests
pin it to the whole-set formula (``evaluate_detector`` over the log's
devices) after every step of seeded random interleavings of installs,
ground-truth labels and idle calls.
"""

import random

import pytest

from repro.detection.evaluation import evaluate_detector
from repro.detection.events import DeviceInstallEvent
from repro.detection.lockstep import DetectorConfig
from repro.obs import Observability
from repro.serve import (
    DetectionService,
    ServiceConfig,
    VirtualClock,
    VirtualTimeEventLoop,
)

#: Small bursts and a short window, so a few hundred steps flag devices.
DETECTOR = DetectorConfig(burst_window_hours=2.0, min_burst_size=3)
PACKAGES = ("com.a", "com.b", "com.c")
BLOCKS = ("198.51.100.0/24", "203.0.113.0/24", "192.0.2.0/24")
#: Farm devices join bursts; organic ones only install alone.
FARM = [f"farm-{i:02d}" for i in range(20)]
ORGANIC = [f"user-{i:02d}" for i in range(20)]
DEVICES = FARM + ORGANIC
#: Ground truth covers part of each pool, plus ids that never install,
#: so every confusion cell fills up.
LABELLABLE = FARM[:12] + ORGANIC[:8] + [f"ghost-{i}" for i in range(3)]


def oracle(service):
    universe = set(service.log.devices())
    return evaluate_detector(service.online.flagged_devices,
                             service.incentivized & universe, universe)


@pytest.fixture
def service():
    loop = VirtualTimeEventLoop()
    yield DetectionService(vclock=VirtualClock(loop), obs=Observability(),
                           config=ServiceConfig(detector=DETECTOR))
    loop.close()


def install(device_id, package, hour, engagement, block):
    return DeviceInstallEvent(
        device_id=device_id, package=package, day=int(hour // 24),
        hour=hour % 24, ip_slash24=block, ssid_hash="ssid:0",
        opened=True, engagement_seconds=engagement)


@pytest.mark.parametrize("seed", range(5))
def test_fold_equals_whole_set_formula_at_every_step(service, seed):
    rng = random.Random(seed)
    hour = 0.0
    labelled_unseen = set()
    labelled_flagged = 0
    idle_calls = 0
    for _ in range(400):
        hour += rng.choice((0.0, 0.5, 1.0, 3.0))
        step = rng.random()
        if step < 0.35:
            # A lockstep burst: low engagement, often behind one /24.
            package = rng.choice(PACKAGES)
            block = rng.choice(BLOCKS)
            for device_id in rng.sample(FARM, rng.randint(3, 6)):
                service.bus.publish(install(device_id, package, hour,
                                            20.0, block))
        elif step < 0.55:
            service.bus.publish(install(
                rng.choice(DEVICES), rng.choice(PACKAGES), hour, 600.0,
                rng.choice(BLOCKS)))
        elif step < 0.85:
            for device_id in rng.sample(LABELLABLE, rng.randint(1, 2)):
                if device_id in service.incentivized:
                    continue
                if not service.log.has_device(device_id):
                    labelled_unseen.add(device_id)
                if service.online.is_flagged(device_id):
                    labelled_flagged += 1
                service.label_incentivized([device_id])
        else:
            idle_calls += 1
            assert service.evaluate_now() == oracle(service)
        assert service.evaluate_now() == oracle(service)

    final = service.evaluate_now()
    assert final.true_positives and final.false_positives
    assert final.false_negatives and final.true_negatives
    # The interleavings covered the orders the fold must get right.
    assert labelled_unseen & set(service.log.devices())
    assert labelled_flagged
    assert idle_calls


def test_labels_restored_by_load_state_refill_the_fold(service):
    for device_id in DEVICES[:6]:
        service.bus.publish(install(device_id, "com.a", 1.0, 20.0,
                                    BLOCKS[0]))
    service.bus.publish(install(DEVICES[0], "com.a", 9.0, 20.0, BLOCKS[1]))
    service.label_incentivized(DEVICES[2:4])
    before = service.evaluate_now()
    # A checkpoint may carry labels the WAL replay did not produce; the
    # restored label order no longer extends the one the fold has read.
    service.load_state(dict(service.state_dict(),
                            _label_order=DEVICES[:4] + LABELLABLE[-3:]))
    assert service.evaluate_now() == oracle(service) != before


def test_unknown_flagged_device_raises(service):
    # Feed the detector without the bus, so the log never sees the farm.
    for device_id in DEVICES[:4]:
        service.online.ingest(install(device_id, "com.a", 1.0, 20.0,
                                      BLOCKS[0]))
    # A later install of the same app closes the burst window.
    service.online.ingest(install("late", "com.a", 9.0, 20.0, BLOCKS[1]))
    assert service.online.flagged_count
    with pytest.raises(ValueError, match="unknown devices"):
        oracle(service)
    with pytest.raises(ValueError, match="unknown devices"):
        service.evaluate_now()
    # The unread flags stay unread: the error repeats until the log
    # knows the devices.
    with pytest.raises(ValueError, match="unknown devices"):
        service.evaluate_now()
