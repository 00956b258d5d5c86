"""HTTP/1.1 message model and byte-level codec.

Offer walls, the Play Store front end, and the telemetry collector all
speak this dialect: one request, one response per connection (the fabric
does not model keep-alive), ``Content-Length`` framing only (no chunked
transfer coding -- servers in this repo always know their body length).

The codec is strict on what it parses and conservative in what it emits,
so the interception proxy can re-serialise a parsed message and get a
byte-identical round trip.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple
from urllib.parse import parse_qsl, quote, urlencode, urlsplit

from repro.net.errors import HttpProtocolError

_CRLF = b"\r\n"
_METHODS = ("GET", "POST", "PUT", "DELETE", "HEAD", "CONNECT", "OPTIONS", "PATCH")

_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    301: "Moved Permanently",
    302: "Found",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


class Headers:
    """Ordered, case-insensitive HTTP header collection."""

    def __init__(self, items: Optional[Iterable[Tuple[str, str]]] = None) -> None:
        self._items: List[Tuple[str, str]] = []
        if items:
            for name, value in items:
                self.add(name, value)

    def add(self, name: str, value: str) -> None:
        if "\r" in name or "\n" in name or "\r" in value or "\n" in value:
            raise HttpProtocolError("header injection attempt")
        self._items.append((name, str(value)))

    def set(self, name: str, value: str) -> None:
        self.remove(name)
        self.add(name, value)

    def get(self, name: str, default: Optional[str] = None) -> Optional[str]:
        lowered = name.lower()
        for key, value in self._items:
            if key.lower() == lowered:
                return value
        return default

    def get_all(self, name: str) -> List[str]:
        lowered = name.lower()
        return [value for key, value in self._items if key.lower() == lowered]

    def remove(self, name: str) -> None:
        lowered = name.lower()
        self._items = [(k, v) for k, v in self._items if k.lower() != lowered]

    def items(self) -> List[Tuple[str, str]]:
        return list(self._items)

    def __contains__(self, name: str) -> bool:
        return self.get(name) is not None

    def __len__(self) -> int:
        return len(self._items)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Headers) and other._items == self._items

    def __repr__(self) -> str:
        return f"Headers({self._items!r})"

    def copy(self) -> "Headers":
        return Headers(self._items)


def _encode_headers(headers: Headers, body: bytes) -> bytes:
    lines = []
    if "content-length" not in headers and body:
        headers = headers.copy()
        headers.set("Content-Length", str(len(body)))
    elif body and headers.get("content-length") != str(len(body)):
        headers = headers.copy()
        headers.set("Content-Length", str(len(body)))
    for name, value in headers.items():
        lines.append(f"{name}: {value}".encode("latin-1"))
    return _CRLF.join(lines)


def _split_head(data: bytes) -> Tuple[List[bytes], bytes]:
    try:
        head, body = data.split(_CRLF + _CRLF, 1)
    except ValueError:
        raise HttpProtocolError("missing header terminator") from None
    lines = head.split(_CRLF)
    if not lines or not lines[0]:
        raise HttpProtocolError("empty start line")
    return lines, body


def _parse_header_lines(lines: Iterable[bytes]) -> Headers:
    headers = Headers()
    for raw in lines:
        try:
            text = raw.decode("latin-1")
        except UnicodeDecodeError as exc:  # pragma: no cover - latin-1 total
            raise HttpProtocolError("undecodable header") from exc
        if ":" not in text:
            raise HttpProtocolError(f"malformed header line: {text!r}")
        name, _, value = text.partition(":")
        if not name or name != name.strip() or name.rstrip() != name:
            raise HttpProtocolError(f"malformed header name: {name!r}")
        headers.add(name, value.strip())
    return headers


def ascii_digits(text: str) -> bool:
    """Whether ``text`` is one or more ASCII digits, the only form a
    numeric HTTP field takes.  ``str.isdigit`` alone also accepts
    superscripts such as "\\xb2", which ``int`` rejects, and ``int``
    alone accepts signs, ``_`` separators and surrounding spaces."""
    return text.isascii() and text.isdigit()


def _check_body(headers: Headers, body: bytes) -> bytes:
    lengths = headers.get_all("content-length")
    if not lengths:
        if body:
            raise HttpProtocolError("body without Content-Length")
        return b""
    if len(set(lengths)) > 1:  # RFC 9112 section 6.3: invalid framing
        raise HttpProtocolError(f"conflicting Content-Length: {lengths!r}")
    length_text = lengths[0]
    if not ascii_digits(length_text):
        raise HttpProtocolError(f"bad Content-Length: {length_text!r}")
    length = int(length_text)
    if length > len(body):
        raise HttpProtocolError("truncated body")
    return body[:length]


@dataclass
class HttpRequest:
    """One HTTP request.

    ``target`` is the request-target as it appears on the wire (path plus
    optional query string).  Convenience accessors expose the decoded
    path, query parameters, and JSON bodies.
    """

    method: str
    target: str
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    http_version: str = "HTTP/1.1"

    def __post_init__(self) -> None:
        if self.method not in _METHODS:
            raise HttpProtocolError(f"unsupported method {self.method!r}")
        if not self.target:
            raise HttpProtocolError("empty request target")

    @property
    def path(self) -> str:
        return urlsplit(self.target).path

    @property
    def query(self) -> Dict[str, str]:
        return dict(parse_qsl(urlsplit(self.target).query, keep_blank_values=True))

    @property
    def host(self) -> Optional[str]:
        return self.headers.get("host")

    def json(self) -> object:
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpProtocolError("request body is not valid JSON") from exc

    def to_bytes(self) -> bytes:
        start = f"{self.method} {self.target} {self.http_version}".encode("latin-1")
        head = _encode_headers(self.headers, self.body)
        if head:
            return start + _CRLF + head + _CRLF + _CRLF + self.body
        return start + _CRLF + _CRLF + self.body

    @classmethod
    def from_bytes(cls, data: bytes) -> "HttpRequest":
        lines, body = _split_head(data)
        parts = lines[0].decode("latin-1").split(" ")
        if len(parts) != 3:
            raise HttpProtocolError(f"malformed request line: {lines[0]!r}")
        method, target, version = parts
        if not version.startswith("HTTP/"):
            raise HttpProtocolError(f"bad HTTP version: {version!r}")
        headers = _parse_header_lines(lines[1:])
        return cls(
            method=method,
            target=target,
            headers=headers,
            body=_check_body(headers, body),
            http_version=version,
        )

    @classmethod
    def get(
        cls,
        path: str,
        host: str,
        params: Optional[Mapping[str, str]] = None,
    ) -> "HttpRequest":
        target = quote(path, safe="/%")
        if params:
            target = f"{target}?{urlencode(sorted(params.items()))}"
        header_obj = Headers()
        header_obj.set("Host", host)
        return cls(method="GET", target=target, headers=header_obj)

    @classmethod
    def post_json(
        cls,
        path: str,
        host: str,
        payload: object,
    ) -> "HttpRequest":
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        header_obj = Headers()
        header_obj.set("Host", host)
        header_obj.set("Content-Type", "application/json")
        header_obj.set("Content-Length", str(len(body)))
        return cls(method="POST", target=quote(path, safe="/%"), headers=header_obj, body=body)


@dataclass
class HttpResponse:
    """One HTTP response."""

    status: int
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    reason: Optional[str] = None
    http_version: str = "HTTP/1.1"

    def __post_init__(self) -> None:
        if not 100 <= self.status <= 599:
            raise HttpProtocolError(f"status out of range: {self.status}")
        if self.reason is None:
            self.reason = _REASONS.get(self.status, "Unknown")

    @property
    def ok(self) -> bool:
        return 200 <= self.status < 300

    def json(self) -> object:
        try:
            return json.loads(self.body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise HttpProtocolError("response body is not valid JSON") from exc

    def text(self) -> str:
        return self.body.decode("utf-8")

    def to_bytes(self) -> bytes:
        start = f"{self.http_version} {self.status} {self.reason}".encode("latin-1")
        head = _encode_headers(self.headers, self.body)
        if head:
            return start + _CRLF + head + _CRLF + _CRLF + self.body
        return start + _CRLF + _CRLF + self.body

    @classmethod
    def from_bytes(cls, data: bytes) -> "HttpResponse":
        lines, body = _split_head(data)
        parts = lines[0].decode("latin-1").split(" ", 2)
        if len(parts) < 2 or not parts[0].startswith("HTTP/"):
            raise HttpProtocolError(f"malformed status line: {lines[0]!r}")
        # RFC 9112 section 4: status-code = 3DIGIT.
        if len(parts[1]) != 3 or not ascii_digits(parts[1]):
            raise HttpProtocolError(f"bad status code: {parts[1]!r}")
        status = int(parts[1])
        reason = parts[2] if len(parts) == 3 else ""
        headers = _parse_header_lines(lines[1:])
        return cls(
            status=status,
            headers=headers,
            body=_check_body(headers, body),
            reason=reason,
            http_version=parts[0],
        )

    @classmethod
    def json_response(cls, payload: object, status: int = 200) -> "HttpResponse":
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        headers = Headers([("Content-Type", "application/json"), ("Content-Length", str(len(body)))])
        return cls(status=status, headers=headers, body=body)

    @classmethod
    def text_response(cls, text: str, status: int = 200) -> "HttpResponse":
        body = text.encode("utf-8")
        headers = Headers([("Content-Type", "text/plain"), ("Content-Length", str(len(body)))])
        return cls(status=status, headers=headers, body=body)

    @classmethod
    def error(cls, status: int, message: str = "") -> "HttpResponse":
        return cls.text_response(message or _REASONS.get(status, "Error"), status=status)
