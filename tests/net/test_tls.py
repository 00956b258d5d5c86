"""TLS layer tests: certificates, trust, handshake, records, pinning."""

import json
import random

import pytest

from repro.net import crypto
from repro.net.errors import (
    CertificatePinningError,
    CertificateVerificationError,
    TlsError,
)
from repro.net.fabric import ConnectionInfo, Endpoint, PacketCapture
from repro.net.http import HttpRequest
from repro.net.ip import IPv4Address
from repro.net.tls import (
    Certificate,
    CertificateAuthority,
    TlsClientSession,
    TlsServerHandler,
    TrustStore,
    _HANDSHAKE_MAGIC,
    _RECORD_MAGIC,
    _handshake_message,
    issue_server_identity,
)
from tests.conftest import make_client, make_https_server


class TestCertificates:
    def setup_method(self):
        self.rng = random.Random(3)
        self.ca = CertificateAuthority("Root", self.rng)

    def test_self_certificate_is_self_signed(self):
        cert = self.ca.self_certificate()
        assert cert.is_self_signed
        assert cert.subject == "Root"

    def test_issue_increments_serials(self):
        identity_a = issue_server_identity(self.ca, "a.example", self.rng)
        identity_b = issue_server_identity(self.ca, "b.example", self.rng)
        assert identity_a.leaf.serial != identity_b.leaf.serial

    def test_json_round_trip(self):
        cert = self.ca.self_certificate()
        assert Certificate.from_json(cert.to_json()) == cert

    def test_malformed_json_rejected(self):
        with pytest.raises(TlsError):
            Certificate.from_json({"subject": "x"})


class TestTrustStore:
    def setup_method(self):
        self.rng = random.Random(4)
        self.ca = CertificateAuthority("Root", self.rng)
        self.store = TrustStore()
        self.store.add_root(self.ca.self_certificate())

    def test_valid_chain_accepted(self):
        identity = issue_server_identity(self.ca, "srv.example", self.rng)
        leaf = self.store.verify_chain(identity.chain, "srv.example", today=5)
        assert leaf.subject == "srv.example"

    def test_name_mismatch_rejected(self):
        identity = issue_server_identity(self.ca, "srv.example", self.rng)
        with pytest.raises(CertificateVerificationError, match="mismatch"):
            self.store.verify_chain(identity.chain, "other.example", today=5)

    def test_expired_certificate_rejected(self):
        identity = issue_server_identity(self.ca, "srv.example", self.rng,
                                         not_before=0, not_after=10)
        with pytest.raises(CertificateVerificationError, match="not valid"):
            self.store.verify_chain(identity.chain, "srv.example", today=11)

    def test_untrusted_issuer_rejected(self):
        rogue = CertificateAuthority("Rogue", self.rng)
        identity = issue_server_identity(rogue, "srv.example", self.rng)
        with pytest.raises(CertificateVerificationError, match="untrusted"):
            self.store.verify_chain(identity.chain, "srv.example", today=5)

    def test_tampered_signature_rejected(self):
        identity = issue_server_identity(self.ca, "srv.example", self.rng)
        leaf = identity.chain[0]
        forged = Certificate(
            subject=leaf.subject, public_key=leaf.public_key,
            issuer=leaf.issuer, serial=leaf.serial,
            not_before=leaf.not_before, not_after=leaf.not_after,
            signature=leaf.signature ^ 1)
        with pytest.raises(CertificateVerificationError, match="signature"):
            self.store.verify_chain([forged], "srv.example", today=5)

    def test_empty_chain_rejected(self):
        with pytest.raises(CertificateVerificationError, match="empty"):
            self.store.verify_chain([], "srv.example", today=0)

    def test_non_root_cannot_be_added(self):
        identity = issue_server_identity(self.ca, "srv.example", self.rng)
        with pytest.raises(ValueError):
            self.store.add_root(identity.leaf)


class TestHandshakeEndToEnd:
    def test_https_request_works(self, fabric, root_ca, trust_store, rng,
                                 https_server, client):
        response = client.get("api.example.com", "/json", params={"a": "1"})
        assert response.ok
        assert response.json()["query"] == {"a": "1"}

    def test_client_without_root_fails(self, fabric, root_ca, rng, https_server):
        empty_store = TrustStore()
        client = make_client(fabric, empty_store, rng)
        with pytest.raises(CertificateVerificationError):
            client.get("api.example.com", "/json")

    def test_pinned_wrong_key_fails(self, fabric, root_ca, trust_store, rng,
                                    https_server):
        pins = {"api.example.com": "0" * 64}
        client = make_client(fabric, trust_store, rng, pins=pins)
        with pytest.raises(CertificatePinningError):
            client.get("api.example.com", "/json")

    def test_pinned_correct_key_succeeds(self, fabric, root_ca, trust_store,
                                         rng, https_server):
        pins = {"api.example.com": https_server.identity.leaf.fingerprint()}
        client = make_client(fabric, trust_store, rng, pins=pins)
        assert client.get("api.example.com", "/json").ok

    def test_no_plaintext_on_wire(self, fabric, root_ca, trust_store, rng,
                                  https_server):
        capture = PacketCapture(fabric)
        client = make_client(fabric, trust_store, rng)
        client.post_json("api.example.com", "/echo", {"secret": "hunter2"})
        for payload in capture.payloads_to("api.example.com"):
            assert b"hunter2" not in payload
            assert payload[:4] in (_HANDSHAKE_MAGIC, _RECORD_MAGIC)

    def test_record_replay_rejected(self, fabric, root_ca, trust_store, rng,
                                    https_server):
        # Handshake normally, then replay the first sealed record.
        asn = fabric.asn_db.eyeball_asns()[0]
        address = fabric.asn_db.allocate(asn.number, rng)
        connection = fabric.connect(Endpoint(address=address),
                                    "api.example.com", 443)
        session = TlsClientSession(connection, "api.example.com",
                                   trust_store, rng)
        request = HttpRequest.get("/json", "api.example.com")
        sealed = session._codec.seal(request.to_bytes())
        connection.roundtrip(sealed)
        with pytest.raises(TlsError, match="replay|MAC"):
            connection.roundtrip(sealed)


class TestMalformedHandshakeFields:
    """A missing or malformed handshake field is a ``TlsError`` (so a
    ``NetError`` callers handle), never a bare ``KeyError``/``ValueError``."""

    HELLO = {"type": "client_hello", "client_random": "00" * 16,
             "sni": "api.example.com"}

    @staticmethod
    def connect(fabric, rng):
        asn = fabric.asn_db.eyeball_asns()[0]
        address = fabric.asn_db.allocate(asn.number, rng)
        return fabric.connect(Endpoint(address=address), "api.example.com", 443)

    @pytest.mark.parametrize("fields", [{}, {"client_random": "zz"}],
                             ids=["missing", "not-hex"])
    def test_server_rejects_bad_client_random(self, fabric, rng,
                                              https_server, fields):
        connection = self.connect(fabric, rng)
        hello = _handshake_message({"type": "client_hello", **fields})
        with pytest.raises(TlsError, match="client_random"):
            connection.roundtrip(hello)

    @pytest.mark.parametrize("value", [None, "xyz", "decrypts-too-long"])
    def test_server_rejects_bad_pre_master(self, fabric, rng, https_server,
                                           value):
        if value == "decrypts-too-long":
            leaf_key = https_server.identity.leaf.public_key
            value = f"{crypto.encrypt(1 << 192, leaf_key):x}"
        fields = {} if value is None else {"encrypted_pre_master": value}
        connection = self.connect(fabric, rng)
        connection.roundtrip(_handshake_message(self.HELLO))
        with pytest.raises(TlsError):
            connection.roundtrip(_handshake_message(
                {"type": "client_key_exchange", **fields}))

    @pytest.mark.parametrize("fields", [{}, {"server_random": "zz"}],
                             ids=["missing", "not-hex"])
    def test_client_rejects_bad_server_random(self, trust_store, rng,
                                              https_server, fields):
        server_hello = _handshake_message({
            "type": "server_hello",
            "chain": [cert.to_json() for cert in https_server.identity.chain],
            **fields,
        })

        class ServerHelloOnly:
            def roundtrip(self, data):
                return server_hello

        with pytest.raises(TlsError, match="server_random"):
            TlsClientSession(ServerHelloOnly(), "api.example.com",
                             trust_store, rng)

    @pytest.mark.parametrize("ticket", [None, "zz", "00" * 15],
                             ids=["missing", "not-hex", "wrong-length"])
    def test_client_rejects_bad_session_ticket(self, fabric, rng,
                                               trust_store, https_server,
                                               ticket):
        connection = self.connect(fabric, rng)

        class TamperedFinished:
            """Relays the real handshake, rewriting the ticket the
            server_finished carries."""

            def roundtrip(self, data):
                reply = connection.roundtrip(data)
                message = json.loads(reply[4:])
                if message["type"] != "server_finished":
                    return reply
                del message["session_ticket"]
                if ticket is not None:
                    message["session_ticket"] = ticket
                return _handshake_message(message)

        with pytest.raises(TlsError, match="session_ticket"):
            TlsClientSession(TamperedFinished(), "api.example.com",
                             trust_store, rng)

    def test_server_hello_splices_names_holding_the_marker(self, rng):
        # The server pre-serialises its hello around a placeholder
        # random.  Certificate text that spells out the placeholder's
        # key and value is escaped by ``json.dumps``, so the splice
        # still yields a fresh serialisation byte for byte.
        marker = '"server_random": "' + "@" * 32 + '"'
        ca = CertificateAuthority("Root CA " + marker, rng)
        identity = issue_server_identity(ca, marker + " api.example.com", rng)
        info = ConnectionInfo(
            client_address=IPv4Address.from_string("10.0.0.1"),
            server_host="api.example.com", server_port=443)
        handler = TlsServerHandler(info, identity, lambda inner: None, rng, {})
        reply = handler.on_data(_handshake_message(self.HELLO))
        server_random = json.loads(reply[4:])["server_random"]
        assert reply == _handshake_message({
            "type": "server_hello",
            "server_random": server_random,
            "chain": [cert.to_json() for cert in identity.chain],
        })
