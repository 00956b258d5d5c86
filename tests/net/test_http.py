"""HTTP codec tests: round trips, accessors, and malformed input."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.errors import HttpProtocolError
from repro.net.fabric import ConnectionInfo
from repro.net.http import Headers, HttpRequest, HttpResponse
from repro.net.ip import IPv4Address
from repro.net.server import HttpConnectionHandler, Router

#: Content-Length headers whose framing is invalid: a latin-1 superscript
#: that ``str.isdigit`` accepts but ``int`` does not, and two headers
#: that disagree (RFC 9112 section 6.3).
BAD_CONTENT_LENGTHS = [
    pytest.param(b"Content-Length: \xb2\r\n", id="superscript-two"),
    pytest.param(b"Content-Length: 1\r\nContent-Length: 5\r\n",
                 id="conflicting"),
]


class TestHeaders:
    def test_case_insensitive_get(self):
        headers = Headers([("Content-Type", "text/plain")])
        assert headers.get("content-type") == "text/plain"
        assert headers.get("CONTENT-TYPE") == "text/plain"

    def test_get_default(self):
        assert Headers().get("missing", "fallback") == "fallback"

    def test_set_replaces_all_occurrences(self):
        headers = Headers([("X-A", "1"), ("x-a", "2")])
        headers.set("X-A", "3")
        assert headers.get_all("x-a") == ["3"]

    def test_add_preserves_order_and_duplicates(self):
        headers = Headers()
        headers.add("Via", "a")
        headers.add("Via", "b")
        assert headers.get_all("via") == ["a", "b"]

    def test_contains(self):
        headers = Headers([("Host", "x")])
        assert "host" in headers
        assert "absent" not in headers

    def test_rejects_header_injection(self):
        with pytest.raises(HttpProtocolError):
            Headers([("Evil", "a\r\nX-Injected: 1")])

    def test_copy_is_independent(self):
        original = Headers([("A", "1")])
        duplicate = original.copy()
        duplicate.set("A", "2")
        assert original.get("A") == "1"


class TestRequestCodec:
    def test_get_round_trip(self):
        request = HttpRequest.get("/offers", "wall.fyber.example",
                                  params={"country": "US", "app": "x"})
        parsed = HttpRequest.from_bytes(request.to_bytes())
        assert parsed.method == "GET"
        assert parsed.path == "/offers"
        assert parsed.query == {"app": "x", "country": "US"}
        assert parsed.host == "wall.fyber.example"

    def test_post_json_round_trip(self):
        request = HttpRequest.post_json("/v1/telemetry", "collect.example",
                                        {"event": "open", "n": 3})
        parsed = HttpRequest.from_bytes(request.to_bytes())
        assert parsed.json() == {"event": "open", "n": 3}
        assert parsed.headers.get("content-type") == "application/json"

    def test_reserialization_is_stable(self):
        request = HttpRequest.post_json("/a", "h", {"k": "v"})
        wire = request.to_bytes()
        assert HttpRequest.from_bytes(wire).to_bytes() == wire

    def test_unsupported_method_rejected(self):
        with pytest.raises(HttpProtocolError):
            HttpRequest(method="BREW", target="/")

    def test_missing_header_terminator(self):
        with pytest.raises(HttpProtocolError):
            HttpRequest.from_bytes(b"GET / HTTP/1.1\r\nHost: x")

    def test_malformed_request_line(self):
        with pytest.raises(HttpProtocolError):
            HttpRequest.from_bytes(b"GET /\r\n\r\n")

    def test_bad_version_rejected(self):
        with pytest.raises(HttpProtocolError):
            HttpRequest.from_bytes(b"GET / SPDY/3\r\n\r\n")

    def test_body_without_content_length_rejected(self):
        with pytest.raises(HttpProtocolError):
            HttpRequest.from_bytes(b"POST /x HTTP/1.1\r\nHost: h\r\n\r\nbody")

    def test_truncated_body_rejected(self):
        wire = b"POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc"
        with pytest.raises(HttpProtocolError):
            HttpRequest.from_bytes(wire)

    def test_body_trimmed_to_content_length(self):
        wire = b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabcdef"
        assert HttpRequest.from_bytes(wire).body == b"abc"

    @pytest.mark.parametrize("headers", BAD_CONTENT_LENGTHS)
    def test_bad_content_length_rejected(self, headers):
        with pytest.raises(HttpProtocolError, match="Content-Length"):
            HttpRequest.from_bytes(
                b"POST /x HTTP/1.1\r\n" + headers + b"\r\nabcde")

    def test_identical_duplicate_content_lengths_parse(self):
        wire = (b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n"
                b"Content-Length: 3\r\n\r\nabcdef")
        assert HttpRequest.from_bytes(wire).body == b"abc"

    def test_bad_content_length_answers_400(self):
        info = ConnectionInfo(client_address=IPv4Address.from_string("10.0.0.1"),
                              server_host="api.example.com", server_port=443)
        handler = HttpConnectionHandler(info, Router())
        reply = handler.on_data(
            b"POST /x HTTP/1.1\r\nContent-Length: \xb2\r\n\r\nab")
        assert HttpResponse.from_bytes(reply).status == 400

    def test_header_without_colon_rejected(self):
        with pytest.raises(HttpProtocolError):
            HttpRequest.from_bytes(b"GET / HTTP/1.1\r\nNoColonHere\r\n\r\n")

    def test_non_json_body_raises_on_json(self):
        request = HttpRequest(method="POST", target="/x",
                              headers=Headers([("Content-Length", "3")]),
                              body=b"abc")
        with pytest.raises(HttpProtocolError):
            request.json()


class TestResponseCodec:
    def test_json_response_round_trip(self):
        response = HttpResponse.json_response({"offers": [1, 2, 3]})
        parsed = HttpResponse.from_bytes(response.to_bytes())
        assert parsed.ok
        assert parsed.json() == {"offers": [1, 2, 3]}

    def test_default_reason_phrases(self):
        assert HttpResponse(status=404).reason == "Not Found"
        assert HttpResponse(status=200).reason == "OK"

    def test_error_helper(self):
        response = HttpResponse.error(503)
        assert response.status == 503
        assert not response.ok

    def test_status_out_of_range(self):
        with pytest.raises(HttpProtocolError):
            HttpResponse(status=999)

    def test_parse_status_line_without_reason(self):
        parsed = HttpResponse.from_bytes(b"HTTP/1.1 204\r\n\r\n")
        assert parsed.status == 204

    def test_malformed_status_code(self):
        with pytest.raises(HttpProtocolError):
            HttpResponse.from_bytes(b"HTTP/1.1 abc OK\r\n\r\n")

    # RFC 9112 section 4: status-code = 3DIGIT; ``int`` alone reads all
    # three of these as 200.
    @pytest.mark.parametrize("status", [b"2_00", b"+200", b"0200"])
    def test_status_code_is_three_ascii_digits(self, status):
        with pytest.raises(HttpProtocolError, match="status code"):
            HttpResponse.from_bytes(b"HTTP/1.1 " + status + b" OK\r\n\r\n")

    @pytest.mark.parametrize("headers", BAD_CONTENT_LENGTHS)
    def test_bad_content_length_rejected(self, headers):
        with pytest.raises(HttpProtocolError, match="Content-Length"):
            HttpResponse.from_bytes(
                b"HTTP/1.1 200 OK\r\n" + headers + b"\r\nabcde")

    def test_text_round_trip_unicode(self):
        response = HttpResponse.text_response("premio 💰")
        parsed = HttpResponse.from_bytes(response.to_bytes())
        assert parsed.text() == "premio 💰"


@given(st.binary(max_size=2048))
def test_request_body_round_trip_property(body):
    headers = Headers([("Host", "h"), ("Content-Length", str(len(body)))])
    request = HttpRequest(method="POST", target="/data", headers=headers, body=body)
    assert HttpRequest.from_bytes(request.to_bytes()).body == body


@given(st.dictionaries(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=12),
    st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126,
                                   exclude_characters="&=#+%;"), max_size=20),
    max_size=8,
))
def test_query_param_round_trip_property(params):
    request = HttpRequest.get("/p", "h", params=params)
    assert HttpRequest.from_bytes(request.to_bytes()).query == params


@given(st.integers(min_value=100, max_value=599),
       st.binary(max_size=1024))
def test_response_round_trip_property(status, body):
    headers = Headers([("Content-Length", str(len(body)))])
    response = HttpResponse(status=status, headers=headers, body=body)
    parsed = HttpResponse.from_bytes(response.to_bytes())
    assert parsed.status == status
    assert parsed.body == body
