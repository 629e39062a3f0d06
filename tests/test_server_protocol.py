"""Tests for the collaboration server's wire protocol (socketless).

Covers the JSON frame codec (round trips, strict rejection of malformed
frames with machine-readable error codes) and the raw RFC 6455 frame codec
used by the WebSocket transport.
"""

import json

import pytest

from repro.core.ids import EventId, delete_op, insert_op
from repro.core.oplog import RemoteEvent, graph_to_remote_events
from repro.server.protocol import (
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    ack_frame,
    bye_frame,
    decode_event,
    decode_frame,
    delta_frame,
    encode_event,
    encode_frame,
    error_frame,
    hello_frame,
    presence_frame,
    welcome_frame,
)
from repro.server.wire import (
    OP_BINARY,
    OP_CLOSE,
    OP_PING,
    OP_TEXT,
    build_ws_frame,
    parse_ws_frame_header,
    websocket_accept_key,
)
from repro.traces.generator import generate_concurrent, generate_sequential


def sample_events():
    return [
        RemoteEvent(
            id=EventId("alice", 0),
            parents=(),
            op=insert_op(0, "héllo ✎"),  # non-ASCII survives the codec
        ),
        RemoteEvent(
            id=EventId("bob", 4),
            parents=(EventId("alice", 6), EventId("carol", 2)),
            op=delete_op(3, 4),
        ),
    ]


class TestFrameRoundTrips:
    def test_delta_round_trip(self):
        events = sample_events()
        decoded = decode_frame(encode_frame(delta_frame(events)))
        assert decoded["type"] == "delta"
        assert decoded["events"] == events

    def test_hello_round_trip(self):
        ids = (EventId("alice", 6), EventId("bob", 4))
        decoded = decode_frame(encode_frame(hello_frame("doc-1", "carol", ids)))
        assert decoded["doc"] == "doc-1"
        assert decoded["agent"] == "carol"
        assert decoded["version"] == ids
        assert decoded["protocol"] == PROTOCOL_VERSION

    def test_welcome_round_trip(self):
        ids = (EventId("a", 0),)
        decoded = decode_frame(encode_frame(welcome_frame("d", "s7", ids)))
        assert decoded["session"] == "s7"
        assert decoded["version"] == ids

    def test_presence_round_trip(self):
        decoded = decode_frame(
            encode_frame(presence_frame("alice", [EventId("alice", 9)]))
        )
        assert decoded["agent"] == "alice"
        assert decoded["cursor"] == (EventId("alice", 9),)

    def test_error_and_bye_round_trip(self):
        err = decode_frame(encode_frame(error_frame("bad-op", "nope")))
        assert (err["code"], err["reason"]) == ("bad-op", "nope")
        assert decode_frame(encode_frame(bye_frame()))["type"] == "bye"

    def test_decode_accepts_bytes(self):
        raw = encode_frame(bye_frame()).encode("utf-8")
        assert decode_frame(raw)["type"] == "bye"


#: Text the encoder must escape exactly as ``json.dumps`` does: quotes,
#: backslashes, control characters, non-BMP characters, a lone surrogate.
AWKWARD = ['say "hi"', "C:\\path\\", "tab\tnul\x00bell\x07\x1f\x7f", "emoji 😀 𝄞", "lone \ud800 half"]


def every_frame():
    """One frame from every builder, the awkward strings in every text field."""
    ids = [EventId(text, 3) for text in AWKWARD]
    events = [RemoteEvent(EventId(text, 1), (), insert_op(0, text)) for text in AWKWARD]
    events += sample_events()
    frames = [delta_frame(events), ack_frame(7), bye_frame(), bye_frame("slow-consumer", True)]
    for text in AWKWARD:
        frames += [
            hello_frame(text, text, ids),
            welcome_frame(text, text, ids),
            presence_frame(text, ids),
            error_frame(text, text),
            bye_frame(text),
        ]
    return frames


class TestWireExactness:
    """``encode_frame`` reuses one C encoder; its output must be the bytes of
    ``json.dumps`` with compact separators and no ASCII escaping, frame for
    frame, or ``wire_bytes_per_edit`` moves."""

    @pytest.mark.parametrize("frame", every_frame(), ids=lambda f: f["type"])
    def test_matches_json_dumps(self, frame):
        assert encode_frame(frame) == json.dumps(frame, separators=(",", ":"), ensure_ascii=False)

    def test_long_poll_body_matches_json_dumps(self):
        body = {"frames": every_frame()}
        assert encode_frame(body) == json.dumps(body, separators=(",", ":"), ensure_ascii=False)


class TestMalformedFrames:
    """Every malformed frame maps to a ProtocolError with a stable code —
    the server answers with an ``error`` frame instead of dropping the
    connection, so the code is part of the wire contract."""

    def expect(self, code, text):
        with pytest.raises(ProtocolError) as excinfo:
            decode_frame(text)
        assert excinfo.value.code == code

    def test_invalid_json(self):
        self.expect("bad-json", "{not json")

    def test_non_object_frame(self):
        self.expect("bad-frame", "[1,2,3]")

    def test_unknown_type(self):
        self.expect("unknown-type", json.dumps({"type": "teleport"}))

    def test_missing_field(self):
        self.expect("missing-field", json.dumps({"type": "delta"}))
        self.expect("missing-field", json.dumps({"type": "presence", "agent": "a"}))

    def test_bad_protocol_version(self):
        frame = hello_frame("d", "a")
        frame["protocol"] = PROTOCOL_VERSION + 1
        self.expect("bad-protocol-version", json.dumps(frame))

    def expect_event(self, code, event):
        frame = delta_frame([])
        frame["events"] = [event]
        self.expect(code, json.dumps(frame))

    def test_bad_id_shapes(self):
        # The event's own id is its first two slots; a parent id is a pair.
        for agent, seq in (("alice", -1), ("alice", 1.5), (0, 1), ("alice", True)):
            self.expect_event("bad-id", [agent, seq, [], 0, "x"])
        for bad in (["alice"], ["alice", -1], ["alice", 1.5], [0, 1], "alice:0", ["alice", False]):
            self.expect_event("bad-id", ["a", 1, [bad], 0, "x"])

    def test_implied_parent_needs_a_previous_character(self):
        self.expect_event("bad-id", ["a", 0, 0, 0, "x"])
        frame = decode_frame(json.dumps({"type": "delta", "events": [["a", 1, 0, 0, "x"]]}))
        assert frame["events"][0].parents == (EventId("a", 0),)

    def test_bad_ops(self):
        cases = [
            ["a", 0, [], 0, ""],  # empty insert
            ["a", 0, [], -1, "x"],  # negative position
            ["a", 0, [], 0, 0],  # zero-length delete
            ["a", 0, [], 0, -2],
            ["a", 0, [], 0, None],  # no body
            ["a", 0, [], 0, 1.5],  # neither text nor a length
            ["a", 0, [], 0, ["move"]],
            ["a", 0, [], 0, True],  # a bool is not a length
            ["a", 0, [], "0", "x"],  # non-int position
            ["a", 0, [], 0.0, "x"],
            ["a", 0, [], None, "x"],
            ["a", 0, [], False, "x"],
        ]
        for bad in cases:
            self.expect_event("bad-op", bad)

    def test_bad_event_shapes(self):
        cases = [
            "not an array",
            {"id": ["a", 0], "parents": [], "op": {"kind": "ins", "pos": 0, "content": "x"}},
            ["a", 0, [], 0],  # arity
            ["a", 0, [], 0, "x", "extra"],
            [],
            ["a", 1, "oops", 0, "x"],  # parents neither 0 nor a list
            ["a", 1, 1, 0, "x"],
            ["a", 1, False, 0, "x"],  # a bool is not the 0 shorthand
            ["a", 1, 0.0, 0, "x"],
            ["a", 1, None, 0, "x"],
        ]
        for bad in cases:
            self.expect_event("bad-event", bad)

    def test_oversized_frame(self):
        frame = delta_frame([])
        frame["padding"] = "x" * MAX_FRAME_BYTES
        self.expect("frame-too-large", json.dumps(frame))

    @pytest.mark.parametrize("excess", [0, 1])
    def test_frame_ceiling_counts_utf8_bytes(self, excess):
        """A frame gets the same verdict as WebSocket text and as an HTTP
        body: the ceiling is in UTF-8 bytes, not characters."""
        shell = encode_frame(bye_frame(reason=""))
        euros, rest = divmod(MAX_FRAME_BYTES + excess - len(shell), 3)
        text = encode_frame(bye_frame(reason="€" * euros + "x" * rest))
        assert len(text.encode("utf-8")) == MAX_FRAME_BYTES + excess
        assert len(text) < MAX_FRAME_BYTES
        for raw in (text, text.encode("utf-8")):
            if excess:
                self.expect("frame-too-large", raw)
            else:
                assert decode_frame(raw)["reason"].startswith("€")

    def test_lone_surrogate_is_refused(self):
        """The server sends on what it accepts as UTF-8, which a lone
        surrogate cannot be: escaped, raw, or surrogate-encoded in bytes, in
        any text field, it is refused where it enters."""
        lone = delta_frame([RemoteEvent(EventId("a", 0), (), insert_op(0, "x\ud800"))])
        escaped = json.dumps(lone)
        assert "\\ud800" in escaped
        raw = encode_frame(lone)
        for text in (escaped, escaped.encode(), raw, raw.encode("utf-8", "surrogatepass")):
            self.expect("bad-frame", text)
        for frame in (
            hello_frame("\udfff", "a"),
            hello_frame("d", "a\ud800"),
            hello_frame("d", "a", [("\udc00", 1)]),
            presence_frame("a", [("\ud800", 1)]),
            error_frame("x", "\udfff"),
        ):
            self.expect("bad-frame", json.dumps(frame))

    def test_bytes_that_are_not_utf8_are_bad_json_however_they_arrive(self):
        """As ``bytes`` (a long-poll body) or surrogate-escaped in a ``str``
        (how ``recv_text`` hands on a WebSocket message) the verdict is the
        same: ``bad-json`` for a byte that is no UTF-8, ``bad-frame`` for an
        encoded surrogate (``ED A0 80``), in an otherwise non-ASCII frame."""
        frame = encode_frame(delta_frame([RemoteEvent(EventId("a", 0), (), insert_op(0, "中 X"))]))
        for code, bad in (("bad-json", b"\xff"), ("bad-frame", b"\xed\xa0\x80")):
            data = frame.encode().replace(b"X", bad)
            self.expect(code, data)
            self.expect(code, data.decode("utf-8", "surrogateescape"))

    def test_lone_surrogate_escape_in_a_non_ascii_frame(self):
        frame = encode_frame(delta_frame([RemoteEvent(EventId("a", 0), (), insert_op(0, "中 X"))]))
        lone = frame.replace("X", "\\ud800")
        for text in (lone, lone.encode()):
            self.expect("bad-frame", text)
        pair = frame.replace("X", "\\ud83d\\ude00")
        for text in (pair, pair.encode()):
            assert decode_frame(text)["events"][0].op.content == "中 😀"

    def test_surrogate_pair_escape_is_text(self):
        emoji = delta_frame([RemoteEvent(EventId("a", 0), (), insert_op(0, "😀 \\ud800"))])
        escaped = json.dumps(emoji)
        assert "\\ud83d\\ude00" in escaped
        for text in (escaped, escaped.encode()):
            assert decode_frame(text)["events"][0].op.content == "😀 \\ud800"


def trace_events(generator, **options):
    return graph_to_remote_events(generator("wire", target_events=300, seed=3, **options).graph)


class TestPositionalEvents:
    """The v2 event: ``[agent, seq, parents, pos, body]``, with ``parents``
    ``0`` when the only parent is the author's previous character."""

    def test_shape(self):
        typed_on = RemoteEvent(EventId("bob", 5), (EventId("bob", 4),), insert_op(2, "hi"))
        assert encode_event(typed_on) == ["bob", 5, 0, 2, "hi"]
        events = sample_events()
        assert encode_event(events[0]) == ["alice", 0, [], 0, "héllo ✎"]
        assert encode_event(events[1]) == ["bob", 4, [["alice", 6], ["carol", 2]], 3, 4]
        # Another author's previous character, or two parents, spell it out.
        other = RemoteEvent(EventId("bob", 5), (EventId("alice", 4),), delete_op(0))
        assert encode_event(other) == ["bob", 5, [["alice", 4]], 0, 1]
        assert decode_event(encode_event(typed_on)) == typed_on

    @pytest.mark.parametrize("generator", [generate_sequential, generate_concurrent])
    def test_trace_round_trip(self, generator):
        options = {"authors": 3} if generator is generate_sequential else {}
        events = trace_events(generator, **options)
        frame = delta_frame(events)
        assert [decode_event(e) for e in frame["events"]] == events
        assert decode_frame(encode_frame(frame))["events"] == events
        implied = [e for e in frame["events"] if e[2] == 0]
        spelled = [e for e in frame["events"] if e[2] != 0]
        assert implied and spelled
        for wire in implied:
            assert wire[1] > 0
        # The shorthand fires exactly when it can.
        assert len(implied) == sum(
            e.parents == (EventId(e.id.agent, e.id.seq - 1),) for e in events
        )


class TestWebSocketFrameCodec:
    """The raw RFC 6455 codec, exercised without a socket."""

    def round_trip(self, opcode, payload, *, mask):
        raw = build_ws_frame(opcode, payload, mask=mask)
        parsed = parse_ws_frame_header(raw)
        assert parsed is not None
        got_opcode, fin, length, mask_key, header_size = parsed
        assert got_opcode == opcode and fin
        assert length == len(payload)
        body = raw[header_size : header_size + length]
        if mask_key is not None:
            body = bytes(b ^ mask_key[i % 4] for i, b in enumerate(body))
        assert body == payload
        return mask_key

    def test_unmasked_server_frame(self):
        assert self.round_trip(OP_TEXT, "server → client".encode(), mask=False) is None

    def test_masked_client_frame(self):
        assert self.round_trip(OP_TEXT, b"client to server", mask=True) is not None

    def test_length_encodings(self):
        # 7-bit, 16-bit and 64-bit payload length encodings.
        for size in (0, 125, 126, 65535, 65536):
            self.round_trip(OP_BINARY, b"a" * size, mask=True)

    def test_control_frames(self):
        self.round_trip(OP_PING, b"keepalive", mask=False)
        self.round_trip(OP_CLOSE, (1000).to_bytes(2, "big"), mask=False)

    def test_incomplete_header_returns_none(self):
        raw = build_ws_frame(OP_TEXT, b"x" * 300, mask=True)
        assert parse_ws_frame_header(raw[:1]) is None
        assert parse_ws_frame_header(raw[:3]) is None  # 16-bit length cut short

    def test_accept_key_rfc_vector(self):
        # The worked example from RFC 6455 §1.3.
        assert (
            websocket_accept_key("dGhlIHNhbXBsZSBub25jZQ==")
            == "s3pPLMBiTxaQ9kYGzzhZRbK+xOo="
        )
