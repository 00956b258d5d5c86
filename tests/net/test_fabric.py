"""Network fabric tests: DNS, listeners, connections, taps, faults."""

import random

import pytest

from repro.net.errors import ConnectionRefusedFabricError, NetError
from repro.net.fabric import (
    ConnectionHandler,
    Endpoint,
    NetworkFabric,
    PacketCapture,
)
from repro.net.ip import IPv4Address
from repro.obs import Observability


class EchoHandler(ConnectionHandler):
    def __init__(self, info):
        super().__init__(info)
        self.closed = False

    def on_data(self, data):
        return b"echo:" + data

    def on_close(self):
        self.closed = True


def _setup(fabric):
    rng = random.Random(5)
    server_address = fabric.asn_db.allocate(14061, rng)
    client_address = fabric.asn_db.allocate(7922, rng)
    fabric.register_host("srv.example", server_address)
    handlers = []

    def factory(info):
        handler = EchoHandler(info)
        handlers.append(handler)
        return handler

    fabric.listen("srv.example", 443, factory)
    return Endpoint(address=client_address), handlers


class TestFabric:
    def setup_method(self):
        self.fabric = NetworkFabric()
        self.client, self.handlers = _setup(self.fabric)

    def test_roundtrip(self):
        with self.fabric.connect(self.client, "srv.example", 443) as conn:
            assert conn.roundtrip(b"hi") == b"echo:hi"

    def test_server_sees_client_address(self):
        with self.fabric.connect(self.client, "srv.example", 443) as conn:
            conn.roundtrip(b"x")
        assert self.handlers[0].info.client_address == self.client.address

    def test_unknown_host_refused(self):
        with pytest.raises(ConnectionRefusedFabricError):
            self.fabric.connect(self.client, "nope.example", 443)

    def test_unbound_port_refused(self):
        with pytest.raises(ConnectionRefusedFabricError):
            self.fabric.connect(self.client, "srv.example", 80)

    def test_resolve(self):
        assert isinstance(self.fabric.resolve("srv.example"), IPv4Address)

    def test_duplicate_hostname_rejected(self):
        with pytest.raises(ValueError):
            self.fabric.register_host("srv.example", self.client.address)

    def test_duplicate_listener_rejected(self):
        with pytest.raises(ValueError):
            self.fabric.listen("srv.example", 443, lambda info: EchoHandler(info))

    def test_listen_requires_dns(self):
        with pytest.raises(ValueError):
            self.fabric.listen("ghost.example", 443, lambda info: EchoHandler(info))

    def test_close_notifies_handler_once(self):
        conn = self.fabric.connect(self.client, "srv.example", 443)
        conn.close()
        conn.close()
        assert self.handlers[0].closed

    def test_roundtrip_after_close_fails(self):
        conn = self.fabric.connect(self.client, "srv.example", 443)
        conn.close()
        with pytest.raises(NetError):
            conn.roundtrip(b"late")

    def test_connections_accepted_counter(self):
        self.fabric.obs = Observability()
        metrics = self.fabric.obs.metrics
        assert metrics.counter_value("net.fabric.connections",
                                     host="srv.example") == 0
        self.fabric.connect(self.client, "srv.example", 443).close()
        self.fabric.connect(self.client, "srv.example", 443).close()
        assert metrics.counter_value("net.fabric.connections",
                                     host="srv.example") == 2


class TestTapAndFaults:
    def setup_method(self):
        self.fabric = NetworkFabric()
        self.client, _ = _setup(self.fabric)

    def test_packet_capture_sees_both_directions(self):
        capture = PacketCapture(self.fabric)
        with self.fabric.connect(self.client, "srv.example", 443) as conn:
            conn.roundtrip(b"ping")
        directions = [frame.direction for frame in capture.frames]
        assert directions == ["request", "response"]
        assert capture.payloads_to("srv.example") == [b"ping", b"echo:ping"]

    def test_detached_capture_stops_recording(self):
        capture = PacketCapture(self.fabric)
        capture.detach()
        with self.fabric.connect(self.client, "srv.example", 443) as conn:
            conn.roundtrip(b"ping")
        assert capture.frames == []

    def test_fault_injection_and_clear(self):
        boom = ConnectionRefusedFabricError("synthetic outage")
        self.fabric.inject_fault("srv.example", 443, boom)
        with pytest.raises(ConnectionRefusedFabricError, match="synthetic"):
            self.fabric.connect(self.client, "srv.example", 443)
        self.fabric.clear_fault("srv.example", 443)
        with self.fabric.connect(self.client, "srv.example", 443) as conn:
            assert conn.roundtrip(b"ok") == b"echo:ok"
