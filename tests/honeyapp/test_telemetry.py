"""Telemetry payload, honey app, and collection-server tests."""

import random

import pytest

from repro.honeyapp.analysis import CampaignWindow, HoneyExperimentAnalysis
from repro.honeyapp.app import HONEY_PACKAGE, HoneyApp, HoneyAppNotInstalledError
from repro.honeyapp.server import TelemetryServer
from repro.honeyapp.telemetry import (
    EVENT_OPEN,
    EVENT_RECORD_CLICK,
    TelemetryPayload,
    build_payload,
    sanitize_ssid,
)
from repro.net.client import HttpClient
from repro.net.http import HttpRequest
from repro.net.ip import AsnDatabase
from repro.net.server import RequestContext
from repro.users.devices import DeviceFactory
from tests.conftest import make_client


_FACTORIES = {}


def make_device(rng, kind="real"):
    # One factory per RNG so device ids stay unique within a test.
    factory = _FACTORIES.get(id(rng))
    if factory is None:
        factory = DeviceFactory(AsnDatabase(), rng)
        _FACTORIES[id(rng)] = factory
    if kind == "emulator":
        return factory.emulator()
    return factory.real_phone("US")


class TestPayload:
    def test_build_payload_sanitizes(self, rng):
        device = make_device(rng)
        device.install("com.whatsapp")
        payload = build_payload(EVENT_OPEN, device, day=3, hour=14.5)
        assert payload.ssid_hash != device.profile.ssid
        assert len(payload.ssid_hash) == 16
        assert payload.ip_slash24.endswith(".0/24")
        assert str(device.address) not in payload.ip_slash24
        assert "com.whatsapp" in payload.installed_packages

    def test_json_round_trip(self, rng):
        device = make_device(rng)
        payload = build_payload(EVENT_RECORD_CLICK, device, day=0, hour=1.25)
        assert TelemetryPayload.from_json(payload.to_json()) == payload

    def test_payload_contains_no_raw_identifiers(self, rng):
        device = make_device(rng)
        payload = build_payload(EVENT_OPEN, device, day=0, hour=0.0)
        serialized = str(payload.to_json())
        assert device.profile.ssid not in serialized
        assert str(device.address) not in serialized
        for forbidden in ("imei", "imsi"):
            assert forbidden not in serialized.lower()

    def test_invalid_event_rejected(self, rng):
        device = make_device(rng)
        with pytest.raises(ValueError):
            build_payload("location_ping", device, day=0, hour=0.0)

    def test_invalid_hour_rejected(self, rng):
        device = make_device(rng)
        with pytest.raises(ValueError):
            build_payload(EVENT_OPEN, device, day=0, hour=24.0)

    def test_ssid_hash_deterministic_and_distinct(self):
        assert sanitize_ssid("home-1") == sanitize_ssid("home-1")
        assert sanitize_ssid("home-1") != sanitize_ssid("home-2")

    @pytest.mark.parametrize("field, value", [
        pytest.param("installed_packages", ["com.a", 1], id="package-int"),
        pytest.param("installed_packages", "com.a", id="packages-string"),
        pytest.param("installed_packages", [["com.a"]], id="packages-nested"),
        pytest.param("is_rooted", "false", id="rooted-string"),
        pytest.param("day", 2.7, id="day-float"),
        pytest.param("day", True, id="day-bool"),
        pytest.param("day", 2 ** 63, id="day-past-64-bits"),
        pytest.param("hour", "3", id="hour-string"),
        pytest.param("hour", True, id="hour-bool"),
        pytest.param("hour", 10 ** 400, id="hour-past-float"),
        pytest.param("device_id", None, id="device-id-null"),
    ])
    def test_from_json_checks_instead_of_coercing(self, rng, field, value):
        upload = build_payload(EVENT_OPEN, make_device(rng), day=0,
                               hour=1.0).to_json()
        upload[field] = value
        with pytest.raises(ValueError):
            TelemetryPayload.from_json(upload)

    def test_last_moment_of_a_day_round_trips(self, rng):
        payload = build_payload(EVENT_OPEN, make_device(rng), day=0,
                                hour=23.9999)
        assert TelemetryPayload.from_json(payload.to_json()).hour == 23.999

    def test_from_json_takes_an_int_hour(self, rng):
        upload = build_payload(EVENT_OPEN, make_device(rng), day=0,
                               hour=1.0).to_json()
        upload["hour"] = 2
        assert TelemetryPayload.from_json(upload).hour == 2.0


@pytest.fixture()
def collector(fabric, root_ca, rng):
    return TelemetryServer(fabric, root_ca, rng)


def make_honey_app(fabric, trust_store, rng, device):
    client = HttpClient(fabric, device.endpoint, trust_store, rng)
    device.install(HONEY_PACKAGE)
    return HoneyApp(device, client)


class TestHoneyAppAndServer:
    def test_open_uploads_event(self, fabric, trust_store, rng, collector):
        device = make_device(rng)
        app = make_honey_app(fabric, trust_store, rng, device)
        app.open(day=1, hour=10.0)
        assert [(stored.payload.event, stored.payload.device_id)
                for stored in collector.events()] == [
            (EVENT_OPEN, device.device_id)]
        assert app.upload_failures == 0

    def test_record_click_uploads_and_counts(self, fabric, trust_store, rng,
                                             collector):
        device = make_device(rng)
        app = make_honey_app(fabric, trust_store, rng, device)
        app.open(day=1, hour=10.0)
        app.click_record(day=1, hour=10.1)
        assert [(stored.payload.event, stored.payload.device_id)
                for stored in collector.events()] == [
            (EVENT_OPEN, device.device_id),
            (EVENT_RECORD_CLICK, device.device_id)]
        assert len(app.memos_recorded) == 1

    def test_requires_install(self, fabric, trust_store, rng, collector):
        device = make_device(rng)
        client = HttpClient(fabric, device.endpoint, trust_store, rng)
        app = HoneyApp(device, client)
        with pytest.raises(HoneyAppNotInstalledError):
            app.open(day=0, hour=0.0)

    def test_server_records_source_asn_kind(self, fabric, trust_store, rng,
                                            collector):
        emulator = make_device(rng, kind="emulator")
        app = make_honey_app(fabric, trust_store, rng, emulator)
        app.open(day=0, hour=0.0)
        stored = collector.events()[0]
        assert stored.source_asn_kind == "datacenter"

    def test_server_rejects_malformed_payload(self, fabric, trust_store, rng,
                                              collector):
        device = make_device(rng)
        client = HttpClient(fabric, device.endpoint, trust_store, rng)
        response = client.post_json(collector.hostname, "/v1/telemetry",
                                    {"event": "open"})
        assert response.status == 400
        assert collector.events() == []

    def test_server_answers_a_body_that_is_not_json_with_400(
            self, fabric, rng, collector):
        context = RequestContext(
            client_address=fabric.asn_db.allocate(16509, rng),
            server_host=collector.hostname, server_port=443,
            path_params={})
        response = collector._ingest(
            HttpRequest("POST", "/v1/telemetry", body=b"not json"), context)
        assert response.status == 400

    def test_mistyped_upload_is_refused_and_checkpoints(
            self, fabric, trust_store, rng, collector):
        device = make_device(rng)
        client = HttpClient(fabric, device.endpoint, trust_store, rng)
        upload = build_payload(EVENT_OPEN, device, day=0, hour=1.0).to_json()
        upload["installed_packages"] = ["com.a", 1]
        response = client.post_json(collector.hostname, "/v1/telemetry",
                                    upload)
        assert response.status == 400
        assert collector.state_dict()["events"] == []

    def test_upload_failure_does_not_crash_app(self, fabric, trust_store, rng,
                                               collector):
        device = make_device(rng)
        app = make_honey_app(fabric, trust_store, rng, device)
        fabric.inject_fault(collector.hostname, 443, ConnectionError("down"))
        app.open(day=0, hour=1.0)
        assert app.upload_failures == 1

    def test_no_plaintext_telemetry_on_wire(self, fabric, trust_store, rng,
                                            collector):
        from repro.net.fabric import PacketCapture
        capture = PacketCapture(fabric)
        device = make_device(rng)
        app = make_honey_app(fabric, trust_store, rng, device)
        app.open(day=0, hour=1.0)
        for frame in capture.payloads_to(collector.hostname):
            assert b"installed_packages" not in frame


class TestAnalysisAttribution:
    def _run(self, fabric, trust_store, rng, collector):
        windows = [
            CampaignWindow("Fyber", "c-fyber", 0, 4),
            CampaignWindow("RankApp", "c-rank", 10, 14),
        ]
        fyber_device = make_device(rng)
        rank_device = make_device(rng)
        for device, day in ((fyber_device, 1), (rank_device, 11)):
            app = make_honey_app(fabric, trust_store, rng, device)
            app.open(day=day, hour=2.0)
            if device is fyber_device:
                app.click_record(day=day, hour=2.1)
                app.click_record(day=day + 1, hour=9.0)
        console = {"c-fyber": 3, "c-rank": 2}  # one install never opened each
        install_days = {"c-fyber": [(1, 1.0), (1, 2.0), (1, 3.0)],
                        "c-rank": [(11, 0.0), (12, 6.0)]}
        return HoneyExperimentAnalysis(windows, collector, console,
                                       install_days)

    def test_devices_attributed_by_window(self, fabric, trust_store, rng,
                                          collector):
        analysis = self._run(fabric, trust_store, rng, collector)
        assert len(analysis.devices_for("Fyber")) == 1
        assert len(analysis.devices_for("RankApp")) == 1

    def test_acquisition_missing_telemetry(self, fabric, trust_store, rng,
                                           collector):
        analysis = self._run(fabric, trust_store, rng, collector)
        by_iip = {s.iip_name: s for s in analysis.acquisition()}
        assert by_iip["Fyber"].installs == 3
        assert by_iip["Fyber"].missing_telemetry == 2
        assert by_iip["RankApp"].missing_fraction == pytest.approx(0.5)
        assert by_iip["Fyber"].delivery_hours == pytest.approx(2.0)
        assert analysis.total_installs() == 5

    def test_engagement_and_day_after(self, fabric, trust_store, rng,
                                      collector):
        analysis = self._run(fabric, trust_store, rng, collector)
        by_iip = {s.iip_name: s for s in analysis.engagement()}
        assert by_iip["Fyber"].clicked_record == 1
        assert by_iip["Fyber"].clicked_day_after == 1
        assert by_iip["RankApp"].clicked_record == 0
        assert by_iip["Fyber"].click_rate == pytest.approx(1 / 3)
