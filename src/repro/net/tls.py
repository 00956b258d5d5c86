"""Simulated TLS: certificates, trust stores, handshake, record layer.

The protocol is a compressed TLS-RSA: the client validates the server's
certificate chain against its trust store, encrypts a pre-master secret
under the leaf's RSA key, and both sides derive symmetric record keys.
Handshake messages travel as JSON with a ``TLSH`` magic; application data
travels in binary ``TLSR`` records (stream-cipher ciphertext plus an
HMAC-SHA256 tag), so a wire tap sees no plaintext after the hello.

What matters for the reproduction is that interception semantics are
real: a man-in-the-middle succeeds exactly when the victim's trust store
contains the attacker's CA (the paper installed a self-signed certificate
on the measurement phone) and the victim does not pin the upstream key
(the paper notes no offer wall used pinning).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import (
    Callable, Dict, List, Mapping, Optional, Sequence, Tuple, TypeVar,
)

from repro.checkpointed import Checkpointed
from repro.net import crypto
from repro.net.errors import (
    CertificatePinningError,
    CertificateVerificationError,
    TlsError,
)
from repro.net.fabric import Connection, ConnectionHandler, ConnectionInfo

_HANDSHAKE_MAGIC = b"TLSH"
_RECORD_MAGIC = b"TLSR"
_RESUME_MAGIC = b"TLSS"
_MAC_LEN = 32
_KEY_BITS = 256  # tiny keys: handshakes must be fast inside tests
_TICKET_LEN = 16

T = TypeVar("T")


@dataclass(frozen=True)
class Certificate:
    """An X.509-shaped certificate binding a subject name to an RSA key."""

    subject: str
    public_key: crypto.RsaPublicKey
    issuer: str
    serial: int
    not_before: int  # inclusive, in simulation days
    not_after: int   # inclusive
    signature: int

    def tbs_bytes(self) -> bytes:
        """The to-be-signed encoding (everything except the signature)."""
        material = "|".join([
            self.subject,
            f"{self.public_key.modulus:x}",
            f"{self.public_key.exponent:x}",
            self.issuer,
            str(self.serial),
            str(self.not_before),
            str(self.not_after),
        ])
        return material.encode("utf-8")

    def fingerprint(self) -> str:
        return self.public_key.fingerprint()

    @property
    def is_self_signed(self) -> bool:
        return self.subject == self.issuer

    def to_json(self) -> Dict[str, object]:
        return {
            "subject": self.subject,
            "modulus": f"{self.public_key.modulus:x}",
            "exponent": self.public_key.exponent,
            "issuer": self.issuer,
            "serial": self.serial,
            "not_before": self.not_before,
            "not_after": self.not_after,
            "signature": f"{self.signature:x}",
        }

    @classmethod
    def from_json(cls, data: Mapping[str, object]) -> "Certificate":
        try:
            return cls(
                subject=str(data["subject"]),
                public_key=crypto.RsaPublicKey(
                    modulus=int(str(data["modulus"]), 16),
                    exponent=int(data["exponent"]),  # type: ignore[arg-type]
                ),
                issuer=str(data["issuer"]),
                serial=int(data["serial"]),  # type: ignore[arg-type]
                not_before=int(data["not_before"]),  # type: ignore[arg-type]
                not_after=int(data["not_after"]),  # type: ignore[arg-type]
                signature=int(str(data["signature"]), 16),
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise TlsError(f"malformed certificate: {exc}") from exc


class CertificateAuthority(Checkpointed):
    """Issues certificates; may be a root (self-signed) or an attacker CA.

    Only the serial counter moves after construction; the keypair is a
    deterministic function of the construction RNG.
    """

    _STATE = ("_next_serial",)

    def __init__(self, name: str, rng: random.Random) -> None:
        self.name = name
        self._keypair = crypto.generate_keypair(_KEY_BITS, rng)
        self._next_serial = 1

    @property
    def public_key(self) -> crypto.RsaPublicKey:
        return self._keypair.public

    def self_certificate(self, not_before: int = 0, not_after: int = 10_000) -> Certificate:
        return self._issue(self.name, self._keypair.public, not_before, not_after)

    def issue(
        self,
        subject: str,
        public_key: crypto.RsaPublicKey,
        not_before: int = 0,
        not_after: int = 10_000,
    ) -> Certificate:
        return self._issue(subject, public_key, not_before, not_after)

    def _issue(
        self,
        subject: str,
        public_key: crypto.RsaPublicKey,
        not_before: int,
        not_after: int,
    ) -> Certificate:
        serial = self._next_serial
        self._next_serial += 1
        unsigned = Certificate(
            subject=subject,
            public_key=public_key,
            issuer=self.name,
            serial=serial,
            not_before=not_before,
            not_after=not_after,
            signature=0,
        )
        signature = crypto.sign(unsigned.tbs_bytes(), self._keypair.private)
        return Certificate(
            subject=subject,
            public_key=public_key,
            issuer=self.name,
            serial=serial,
            not_before=not_before,
            not_after=not_after,
            signature=signature,
        )


class TrustStore:
    """The set of root CAs a client trusts.

    Installing a self-signed certificate on an Android phone (as the
    paper's measurement setup does for mitmproxy) corresponds to calling
    :meth:`add_root` with the proxy CA's self-certificate.
    """

    def __init__(self) -> None:
        self._roots: Dict[str, crypto.RsaPublicKey] = {}

    def add_root(self, certificate: Certificate) -> None:
        if not certificate.is_self_signed:
            raise ValueError("only self-signed certificates can be roots")
        if not crypto.verify(certificate.tbs_bytes(), certificate.signature,
                             certificate.public_key):
            raise CertificateVerificationError("root certificate signature invalid")
        self._roots[certificate.subject] = certificate.public_key

    def trusts(self, name: str) -> bool:
        return name in self._roots

    def verify_chain(self, chain: Sequence[Certificate], hostname: str,
                     today: int) -> Certificate:
        """Validate a leaf-first chain; return the leaf on success."""
        if not chain:
            raise CertificateVerificationError("empty certificate chain")
        leaf = chain[0]
        if leaf.subject != hostname:
            raise CertificateVerificationError(
                f"name mismatch: certificate for {leaf.subject!r}, wanted {hostname!r}")
        for index, certificate in enumerate(chain):
            if not certificate.not_before <= today <= certificate.not_after:
                raise CertificateVerificationError(
                    f"certificate for {certificate.subject!r} not valid on day {today}")
            issuer_key = self._issuer_key(chain, index)
            if issuer_key is None:
                raise CertificateVerificationError(
                    f"untrusted issuer {certificate.issuer!r} "
                    f"for {certificate.subject!r}")
            if not crypto.verify(certificate.tbs_bytes(), certificate.signature, issuer_key):
                raise CertificateVerificationError(
                    f"bad signature on certificate for {certificate.subject!r}")
            if certificate.issuer in self._roots:
                return leaf
        raise CertificateVerificationError("chain does not terminate at a trusted root")

    def _issuer_key(self, chain: Sequence[Certificate], index: int) -> Optional[crypto.RsaPublicKey]:
        certificate = chain[index]
        if certificate.issuer in self._roots:
            return self._roots[certificate.issuer]
        if index + 1 < len(chain) and chain[index + 1].subject == certificate.issuer:
            return chain[index + 1].public_key
        return None


# ---------------------------------------------------------------------------
# Record layer
# ---------------------------------------------------------------------------


class _RecordCodec:
    """Encrypt/decrypt TLSR records with derived keys."""

    def __init__(self, enc_key: bytes, mac_key: bytes) -> None:
        self._enc_key = enc_key
        self._mac_key = mac_key
        self._send_seq = 0
        self._recv_seq = 0

    def seal(self, plaintext: bytes) -> bytes:
        seq = self._send_seq
        self._send_seq += 1
        nonce = seq.to_bytes(8, "big")
        ciphertext = crypto.keystream_xor(self._enc_key, nonce, plaintext)
        mac = crypto.hmac_sha256(self._mac_key, nonce + ciphertext)
        return (_RECORD_MAGIC + nonce
                + len(ciphertext).to_bytes(4, "big") + ciphertext + mac)

    def open(self, record: bytes) -> bytes:
        if record[:4] != _RECORD_MAGIC:
            raise TlsError("not a TLS record")
        nonce = record[4:12]
        length = int.from_bytes(record[12:16], "big")
        ciphertext = record[16:16 + length]
        mac = record[16 + length:16 + length + _MAC_LEN]
        if len(ciphertext) != length or len(mac) != _MAC_LEN:
            raise TlsError("truncated TLS record")
        expected = crypto.hmac_sha256(self._mac_key, nonce + ciphertext)
        if not crypto.constant_time_equal(mac, expected):
            raise TlsError("record MAC failure")
        seq = int.from_bytes(nonce, "big")
        if seq != self._recv_seq:
            raise TlsError(f"record replay/reorder: got seq {seq}, "
                           f"expected {self._recv_seq}")
        self._recv_seq += 1
        return crypto.keystream_xor(self._enc_key, nonce, ciphertext)


def _handshake_message(payload: Mapping[str, object]) -> bytes:
    return _HANDSHAKE_MAGIC + json.dumps(payload, sort_keys=True).encode("utf-8")


def _parse_handshake(data: bytes, expected_type: str) -> Dict[str, object]:
    if data[:4] != _HANDSHAKE_MAGIC:
        raise TlsError("expected handshake message")
    try:
        message = json.loads(data[4:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TlsError("undecodable handshake message") from exc
    if not isinstance(message, dict) or message.get("type") != expected_type:
        raise TlsError(f"expected {expected_type!r} handshake message")
    return message


def _handshake_field(message: Mapping[str, object], name: str,
                     parse: Callable[[str], T]) -> T:
    """``parse(str(message[name]))``; a missing or malformed field is a
    :class:`TlsError`, like every other bad handshake message."""
    try:
        return parse(str(message[name]))
    except (KeyError, ValueError) as exc:
        raise TlsError(
            f"missing or malformed handshake field {name!r}") from exc


def is_resume_bytes(data: bytes) -> bool:
    return data[:4] == _RESUME_MAGIC


# ---------------------------------------------------------------------------
# Session resumption
# ---------------------------------------------------------------------------
#
# A compressed session-ticket scheme.  Every server's ``server_finished``
# message carries a ticket bound (by HMAC) to the record keys both sides
# just derived, and the server files the keys under the ticket in its
# ticket table, a plain ``{ticket: (enc_key, mac_key)}`` dict shared by
# its connections.  A client holding the ticket and the base keys can
# later send a single ``TLSS`` flight — ticket, a resumption counter, and
# its first sealed record — skipping both handshake round trips.  Every
# quantity involved is a pure function of the original handshake
# transcript, so resumption never draws on an RNG and seeded runs stay
# byte-identical.


def _mint_ticket(mac_key: bytes) -> bytes:
    return crypto.hmac_sha256(mac_key, b"session-ticket")[:_TICKET_LEN]


def _parse_ticket(text: str) -> bytes:
    ticket = bytes.fromhex(text)
    if len(ticket) != _TICKET_LEN:
        raise ValueError(f"session ticket of {len(ticket)} bytes")
    return ticket


def _resumption_keys(enc_key: bytes, mac_key: bytes,
                     counter: int) -> Tuple[bytes, bytes]:
    """Fresh record keys for one resumption, bound to its counter."""
    label = counter.to_bytes(4, "big")
    return (crypto.hmac_sha256(enc_key, b"resume-enc" + label),
            crypto.hmac_sha256(mac_key, b"resume-mac" + label))


# ---------------------------------------------------------------------------
# Client session
# ---------------------------------------------------------------------------


class TlsClientSession:
    """Client side of the handshake, layered over a fabric connection."""

    def __init__(
        self,
        connection: Connection,
        hostname: str,
        trust_store: TrustStore,
        rng: random.Random,
        today: int = 0,
        pinned_fingerprints: Optional[Mapping[str, str]] = None,
    ) -> None:
        self._connection = connection
        self._hostname = hostname
        self._codec: Optional[_RecordCodec] = None
        self._resume_header: Optional[bytes] = None
        self.server_certificate: Optional[Certificate] = None
        self.session_ticket: Optional[bytes] = None
        self.base_keys: Optional[Tuple[bytes, bytes]] = None
        self._handshake(trust_store, rng, today, pinned_fingerprints or {})

    @classmethod
    def resume(
        cls,
        connection: Connection,
        hostname: str,
        ticket: bytes,
        enc_key: bytes,
        mac_key: bytes,
        counter: int,
    ) -> "TlsClientSession":
        """Resume a prior session from its ticket and base record keys.

        Skips both handshake round trips: the ticket, the resumption
        counter, and the first sealed record travel in one ``TLSS``
        flight prepended to the first :meth:`send`.
        """
        session = cls.__new__(cls)
        session._connection = connection
        session._hostname = hostname
        session.server_certificate = None
        session.session_ticket = ticket
        session.base_keys = None
        resume_enc, resume_mac = _resumption_keys(enc_key, mac_key, counter)
        session._codec = _RecordCodec(resume_enc, resume_mac)
        session._resume_header = (
            _RESUME_MAGIC + ticket + counter.to_bytes(4, "big"))
        return session

    def _handshake(
        self,
        trust_store: TrustStore,
        rng: random.Random,
        today: int,
        pins: Mapping[str, str],
    ) -> None:
        client_random = rng.getrandbits(128).to_bytes(16, "big")
        hello = _handshake_message({
            "type": "client_hello",
            "client_random": client_random.hex(),
            "sni": self._hostname,
        })
        server_hello = _parse_handshake(self._connection.roundtrip(hello), "server_hello")
        chain_json = server_hello.get("chain")
        if not isinstance(chain_json, list):
            raise TlsError("server hello missing certificate chain")
        chain = [Certificate.from_json(entry) for entry in chain_json]
        leaf = trust_store.verify_chain(chain, self._hostname, today)
        pinned = pins.get(self._hostname)
        if pinned is not None and leaf.fingerprint() != pinned:
            raise CertificatePinningError(
                f"pinned key mismatch for {self._hostname!r}")
        self.server_certificate = leaf
        server_random = _handshake_field(
            server_hello, "server_random", bytes.fromhex)
        pre_master = rng.getrandbits(192).to_bytes(24, "big")
        encrypted = crypto.encrypt(
            int.from_bytes(pre_master, "big"), leaf.public_key)
        key_exchange = _handshake_message({
            "type": "client_key_exchange",
            "encrypted_pre_master": f"{encrypted:x}",
        })
        finished = _parse_handshake(
            self._connection.roundtrip(key_exchange), "server_finished")
        enc_key, mac_key = crypto.derive_keys(pre_master, client_random, server_random)
        verify_data = crypto.hmac_sha256(
            mac_key, b"finished" + client_random + server_random)
        if str(finished.get("verify_data")) != verify_data.hex():
            raise TlsError("server finished verification failed")
        self._codec = _RecordCodec(enc_key, mac_key)
        self.session_ticket = _handshake_field(
            finished, "session_ticket", _parse_ticket)
        self.base_keys = (enc_key, mac_key)

    def send(self, plaintext: bytes) -> bytes:
        """One encrypted application-data round trip."""
        if self._codec is None:
            raise TlsError("handshake not complete")
        sealed = self._codec.seal(plaintext)
        if self._resume_header is not None:
            sealed = self._resume_header + sealed
            self._resume_header = None
        return self._codec.open(self._connection.roundtrip(sealed))

    def close(self) -> None:
        self._connection.close()


# ---------------------------------------------------------------------------
# Server handler
# ---------------------------------------------------------------------------


@dataclass
class ServerIdentity:
    """A server's certificate chain and matching private key."""

    _TRANSIENT = {
        "_hello_template": "a memo of the pre-serialised server hello, "
                           "a pure function of the identity; rebuilt on "
                           "first use",
    }

    chain: List[Certificate]
    private_key: crypto.RsaPrivateKey

    @property
    def leaf(self) -> Certificate:
        return self.chain[0]


#: ``server_random`` placeholder for pre-serialised hello templates.
#: "@" is not a hex digit, so a generated 32-hex-char random can never
#: collide with it.
_HELLO_PLACEHOLDER = "@" * 32


def _server_hello_template(identity: ServerIdentity) -> Tuple[str, str]:
    """(prefix, suffix) around the ``server_random`` value in this
    identity's serialised server_hello.  The chain dominates the message
    and never changes for a given identity, so serialising it on every
    handshake is pure waste; the spliced output is byte-identical to a
    fresh ``json.dumps`` because the random is a fixed-width hex string.
    The marker occurs exactly once: ``json.dumps`` escapes every ``"``
    inside a string, so ``"server_random": "`` can only be the real key,
    whatever text the certificates carry.
    """
    template = getattr(identity, "_hello_template", None)
    if template is not None:
        return template
    text = json.dumps({
        "type": "server_hello",
        "server_random": _HELLO_PLACEHOLDER,
        "chain": [certificate.to_json() for certificate in identity.chain],
    }, sort_keys=True)
    prefix, suffix = text.split(
        '"server_random": "' + _HELLO_PLACEHOLDER + '"')
    template = (prefix + '"server_random": "', '"' + suffix)
    identity._hello_template = template  # type: ignore[attr-defined]
    return template


def issue_server_identity(
    ca: CertificateAuthority,
    hostname: str,
    rng: random.Random,
    not_before: int = 0,
    not_after: int = 10_000,
) -> ServerIdentity:
    """Generate a fresh keypair for ``hostname`` and certify it via ``ca``."""
    keypair = crypto.generate_keypair(_KEY_BITS, rng)
    leaf = ca.issue(hostname, keypair.public, not_before, not_after)
    return ServerIdentity(chain=[leaf], private_key=keypair.private)


class TlsServerHandler(ConnectionHandler):
    """Server side of the handshake, wrapping a plaintext inner handler."""

    def __init__(
        self,
        info: ConnectionInfo,
        identity: ServerIdentity,
        inner_factory,
        rng: random.Random,
        tickets: Dict[bytes, Tuple[bytes, bytes]],
    ) -> None:
        super().__init__(info)
        self._identity = identity
        self._inner = inner_factory(info)
        self._rng = rng
        self._tickets = tickets
        self._state = "expect_hello"
        self._client_random = b""
        self._server_random = b""
        self._codec: Optional[_RecordCodec] = None

    def on_data(self, data: bytes) -> bytes:
        if self._state == "expect_hello":
            if is_resume_bytes(data):
                return self._handle_resume(data)
            return self._handle_hello(data)
        if self._state == "expect_key_exchange":
            return self._handle_key_exchange(data)
        if self._state == "established":
            return self._handle_record(data)
        raise TlsError(f"unexpected state {self._state!r}")

    def _handle_hello(self, data: bytes) -> bytes:
        message = _parse_handshake(data, "client_hello")
        self._client_random = _handshake_field(
            message, "client_random", bytes.fromhex)
        self._server_random = self._rng.getrandbits(128).to_bytes(16, "big")
        self._state = "expect_key_exchange"
        prefix, suffix = _server_hello_template(self._identity)
        return _HANDSHAKE_MAGIC + (
            prefix + self._server_random.hex() + suffix).encode("utf-8")

    def _handle_key_exchange(self, data: bytes) -> bytes:
        message = _parse_handshake(data, "client_key_exchange")
        encrypted = _handshake_field(
            message, "encrypted_pre_master", lambda text: int(text, 16))
        pre_master_int = crypto.decrypt(encrypted, self._identity.private_key)
        if pre_master_int >= 1 << 192:
            raise TlsError("pre-master secret out of range")
        pre_master = pre_master_int.to_bytes(24, "big")
        enc_key, mac_key = crypto.derive_keys(
            pre_master, self._client_random, self._server_random)
        self._codec = _RecordCodec(enc_key, mac_key)
        verify_data = crypto.hmac_sha256(
            mac_key, b"finished" + self._client_random + self._server_random)
        self._state = "established"
        ticket = _mint_ticket(mac_key)
        self._tickets[ticket] = (enc_key, mac_key)
        return _handshake_message({
            "type": "server_finished",
            "verify_data": verify_data.hex(),
            "session_ticket": ticket.hex(),
        })

    def _handle_resume(self, data: bytes) -> bytes:
        """One-flight resumption: ticket + counter + first sealed record."""
        header_len = 4 + _TICKET_LEN + 4
        if len(data) < header_len:
            raise TlsError("truncated resumption flight")
        ticket = data[4:4 + _TICKET_LEN]
        counter = int.from_bytes(data[4 + _TICKET_LEN:header_len], "big")
        base_keys = self._tickets.get(ticket)
        if base_keys is None:
            raise TlsError("unknown session ticket")
        resume_enc, resume_mac = _resumption_keys(*base_keys, counter=counter)
        self._codec = _RecordCodec(resume_enc, resume_mac)
        self._state = "established"
        return self._handle_record(data[header_len:])

    def _handle_record(self, data: bytes) -> bytes:
        assert self._codec is not None
        plaintext = self._codec.open(data)
        reply = self._inner.on_data(plaintext)
        return self._codec.seal(reply)

    def on_close(self) -> None:
        self._inner.on_close()
