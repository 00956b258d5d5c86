"""Device model tests: builds, emulator detection, farms."""

import random

import pytest

from repro.net.ip import AsnDatabase, slash24
from repro.users.devices import (
    DeviceFactory,
    DeviceProfile,
    EMULATOR_BUILDS,
    REAL_BUILDS,
    looks_like_emulator,
)


@pytest.fixture()
def factory():
    return DeviceFactory(AsnDatabase(), random.Random(21))


class TestEmulatorDetection:
    def test_emulator_builds_flagged(self):
        for build in EMULATOR_BUILDS:
            assert looks_like_emulator(build)

    def test_real_builds_not_flagged(self):
        for build in REAL_BUILDS:
            assert not looks_like_emulator(build)

    def test_profile_property(self):
        emulated = DeviceProfile("d1", "genymotion/vbox86p", True, "x", "US")
        real = DeviceProfile("d2", "samsung/SM-G960F", False, "x", "US")
        assert emulated.is_emulator
        assert not real.is_emulator


class TestDeviceFactory:
    def test_real_phone_on_eyeball_asn(self, factory):
        db = AsnDatabase()
        device = factory.real_phone("US")
        record = db.lookup(device.address)
        assert record is not None
        assert record.kind == "eyeball"
        assert record.country == "US"
        assert not device.profile.is_emulator

    def test_emulator_on_datacenter_asn(self, factory):
        db = AsnDatabase()
        device = factory.emulator()
        record = db.lookup(device.address)
        assert record.kind == "datacenter"
        assert device.profile.is_emulator
        assert device.profile.is_rooted

    def test_cloud_phone_real_build_datacenter_network(self, factory):
        db = AsnDatabase()
        device = factory.cloud_phone()
        assert not device.profile.is_emulator
        assert db.lookup(device.address).kind == "datacenter"

    def test_unique_device_ids(self, factory):
        ids = {factory.real_phone("US").device_id for _ in range(50)}
        assert len(ids) == 50

    def test_country_without_eyeball_asn_falls_back(self, factory):
        device = factory.real_phone("ZZ")
        assert device.profile.country == "ZZ"

    def test_install_tracking(self, factory):
        device = factory.real_phone("US")
        device.install("com.whatsapp")
        assert device.has_installed("com.whatsapp")


class TestDeviceFarm:
    def test_farm_shares_slash24_and_ssid(self, factory):
        farm = factory.farm("PH", size=20, rooted_fraction=0.9)
        assert len(farm) == 20
        blocks = {slash24(device.address) for device in farm.devices}
        assert len(blocks) == 1
        rooted = [device for device in farm.devices if device.profile.is_rooted]
        # ~18/20 rooted, all sharing the farm SSID.
        assert len(rooted) >= 15
        assert {device.profile.ssid for device in rooted} == {farm.ssid}

    def test_farm_devices_are_real_builds(self, factory):
        farm = factory.farm("ID", size=10)
        assert all(not device.profile.is_emulator for device in farm.devices)
