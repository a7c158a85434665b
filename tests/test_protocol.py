import base64
import dataclasses
import hashlib
import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedkit import (
    AlgorithmConfig,
    EncodeError,
    FrameDecoder,
    Message,
    ModelUpdate,
    ParameterVector,
    ProtocolError,
    decode,
    encode,
    params,
)
from fedkit.params import VECTOR_KEY
from fedkit.protocol import (
    _BODY_TYPES,
    MAX_FRAME_BYTES,
    MESSAGE_KINDS,
    Abort,
    JoinAck,
    TaskAssignment,
)


def f64le(*values) -> dict:
    """The JSON form of a vector of ``values``, which may be non-finite."""
    raw = np.array(values, dtype="<f8").tobytes()
    return {VECTOR_KEY: base64.b64encode(raw).decode("ascii")}


def random_message(rng) -> Message:
    kind = rng.choice(
        [
            "join_request",
            "join_ack",
            "task_assignment",
            "update_submission",
            "experiment_done",
            "abort",
        ]
    )
    round_index = int(rng.integers(0, 1000))
    client = rng.choice(["basel", "freiburg", "strasbourg", "söder-site", "m0ck"])
    if kind == "join_ack":
        algo_kind = rng.choice(["fedavg", "fedprox", "ditto"])
        algorithm = AlgorithmConfig(
            kind=algo_kind,
            prox_mu=float(rng.uniform(0, 2)) if algo_kind == "fedprox" else 0.0,
            ditto_lambda=float(rng.uniform(0, 2)) if algo_kind == "ditto" else 0.0,
            weighting=rng.choice(["sample_count", "uniform"]),
        )
        body = JoinAck(
            accepted=bool(rng.integers(0, 2)),
            current_round=int(rng.integers(0, 1000)),
            algorithm=algorithm,
            reason=rng.choice(["", "unknown site", "ωμέγα"]),
        )
    elif kind == "task_assignment":
        body = TaskAssignment(params=ParameterVector(rng.standard_normal(int(rng.integers(1, 40)))))
    elif kind == "update_submission":
        body = ModelUpdate(
            client_id=client,
            round=round_index,
            params=ParameterVector(rng.standard_normal(int(rng.integers(1, 40))) * 1e3),
            sample_count=int(rng.integers(1, 5000)),
            train_seconds=float(rng.uniform(0, 1e4)),
        )
    elif kind == "abort":
        body = Abort(reason=rng.choice(["", "quorum lost", "oψ"]))
    else:
        body = None
    return Message(kind=kind, round=round_index, client_id=client, body=body)


class TestFraming:
    def test_prefix_is_payload_length(self):
        frame = encode(Message("experiment_done", 0, "basel"))
        length = int.from_bytes(frame[:4], "big")
        assert length == len(frame) - 4

    def test_round_trip_examples(self):
        msg = Message(
            "task_assignment",
            3,
            "basel",
            TaskAssignment(params=ParameterVector([0.1, -2.5, 1e-17])),
        )
        assert decode(encode(msg)) == msg

    def test_truncated_prefix_needs_more(self):
        frame = encode(Message("experiment_done", 0, "x"))
        with pytest.raises(ProtocolError):
            decode(frame[:3])

    def test_truncated_payload_needs_more(self):
        frame = encode(Message("experiment_done", 0, "x"))
        with pytest.raises(ProtocolError):
            decode(frame[:-1])

    def test_trailing_bytes_rejected(self):
        frame = encode(Message("experiment_done", 0, "x"))
        with pytest.raises(ProtocolError):
            decode(frame + b"!")

    def test_oversized_length_prefix_rejected_before_allocation(self):
        bad = (MAX_FRAME_BYTES + 1).to_bytes(4, "big") + b"{}"
        with pytest.raises(ProtocolError, match="cap"):
            decode(bad)

    def test_decoder_rejects_oversized_prefix_immediately(self):
        decoder = FrameDecoder()
        with pytest.raises(ProtocolError, match="cap"):
            decoder.feed((300 * 1024 * 1024).to_bytes(4, "big"))

    def test_non_finite_params_encode_error(self):
        update = ModelUpdate("c", 0, ParameterVector([1.0]), 1, train_seconds=0.0)
        object.__setattr__(update, "train_seconds", float("inf"))
        msg = Message("update_submission", 0, "c", update)
        with pytest.raises(EncodeError):
            encode(msg)

    def test_oversized_payload_encode_error(self, monkeypatch):
        import fedkit.protocol as protocol

        monkeypatch.setattr(protocol, "MAX_FRAME_BYTES", 256)
        update = ModelUpdate("c", 0, ParameterVector(np.arange(100.0)), 1)
        with pytest.raises(EncodeError, match="cap"):
            encode(Message("update_submission", 0, "c", update))


class TestKindPairing:
    def test_wrong_body_type_rejected_at_construction(self):
        with pytest.raises(ProtocolError):
            Message("experiment_done", 0, "c", Abort("nope"))
        with pytest.raises(ProtocolError):
            Message("join_ack", 0, "c", None)

    def test_update_round_must_match_envelope(self):
        update = ModelUpdate("c", 4, ParameterVector([1.0]), 1)
        with pytest.raises(ProtocolError):
            Message("update_submission", 5, "c", update)

    @pytest.mark.parametrize("round_index", ["1", None, 1.5, True, -1])
    def test_update_round_must_be_a_non_negative_integer(self, round_index):
        document = golden_document("update_submission")
        document["round"] = round_index
        with pytest.raises(ProtocolError) as info:
            decode(frame_of(document))
        assert str(info.value) == f"round must be a non-negative integer, got {round_index!r}"

    def test_unknown_kind_rejected(self):
        payload = json.dumps(
            {"kind": "bogus", "round": 0, "client_id": "c", "body": {}}
        ).encode()
        with pytest.raises(ProtocolError):
            decode(len(payload).to_bytes(4, "big") + payload)

    def test_heartbeat_is_an_unknown_kind(self):
        # The protocol has no heartbeat: no fedkit peer sends one.
        with pytest.raises(ProtocolError, match="unknown message kind 'heartbeat'"):
            decode(frame_of({"kind": "heartbeat", "round": 0, "client_id": "c", "body": {}}))
        with pytest.raises(ProtocolError, match="unknown message kind"):
            Message("heartbeat", 0, "c")

    def test_missing_field_rejected(self):
        payload = json.dumps({"kind": "experiment_done", "round": 0, "body": {}}).encode()
        with pytest.raises(ProtocolError):
            decode(len(payload).to_bytes(4, "big") + payload)

    def test_extra_body_key_rejected(self):
        payload = json.dumps(
            {"kind": "experiment_done", "round": 0, "client_id": "c", "body": {"x": 1}}
        ).encode()
        with pytest.raises(ProtocolError):
            decode(len(payload).to_bytes(4, "big") + payload)

    def test_malformed_json_is_protocol_error(self):
        payload = b"{nope"
        with pytest.raises(ProtocolError):
            decode(len(payload).to_bytes(4, "big") + payload)

    def test_infinity_literal_rejected(self):
        # An infinite parameter, as bytes, and an Infinity literal where the
        # body still carries JSON numbers.
        for body, key in (
            ({"params": f64le(math.inf), "sample_count": 1, "train_seconds": 0.0}, "params"),
            ({"params": f64le(1.0), "sample_count": 1, "train_seconds": math.inf},
             "train_seconds"),
        ):
            payload = json.dumps(
                {"kind": "update_submission", "round": 0, "client_id": "c", "body": body}
            ).encode()
            with pytest.raises(ProtocolError, match=key):
                decode(len(payload).to_bytes(4, "big") + payload)


class TestRoundTripProperty:
    def test_thousand_random_messages(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            msg = random_message(rng)
            again = decode(encode(msg))
            assert again == msg
            if msg.kind in ("task_assignment", "update_submission"):
                assert np.array_equal(again.body.params.values, msg.body.params.values)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 50))
    @settings(max_examples=30, deadline=None)
    def test_chunk_boundary_independence(self, seed, chunk_size):
        rng = np.random.default_rng(seed)
        messages = [random_message(rng) for _ in range(8)]
        stream = b"".join(encode(m) for m in messages)
        whole = FrameDecoder().feed(stream)
        chunked = FrameDecoder()
        got = []
        for start in range(0, len(stream), chunk_size):
            got.extend(chunked.feed(stream[start : start + chunk_size]))
        assert got == whole == messages

    def test_byte_at_a_time(self):
        rng = np.random.default_rng(5)
        messages = [random_message(rng) for _ in range(4)]
        stream = b"".join(encode(m) for m in messages)
        decoder = FrameDecoder()
        got = []
        for i in range(len(stream)):
            got.extend(decoder.feed(stream[i : i + 1]))
        assert got == messages
        extra = random_message(rng)
        assert decoder.feed(encode(extra)) == [extra]


# One fixed message of each kind, and the sha256 of its frame. The digests
# pin the wire bytes: any codec change that alters a frame fails here.
GOLDEN = [
    Message("join_request", 0, "basel"),
    Message(
        "join_ack",
        2,
        "basel",
        JoinAck(
            accepted=True,
            current_round=2,
            algorithm=AlgorithmConfig(kind="fedprox", prox_mu=0.25),
            reason="",
        ),
    ),
    Message(
        "task_assignment", 3, "freiburg", TaskAssignment(params=ParameterVector([0.1, -2.5, 1e-17]))
    ),
    Message(
        "update_submission",
        3,
        "strasbourg",
        ModelUpdate(
            "strasbourg", 3, ParameterVector([1.5, -0.0, 3e-300, 123456.789]), 24, train_seconds=0.125
        ),
    ),
    Message("experiment_done", 5, "basel"),
    Message("abort", 1, "söder-site", Abort(reason="quorum lost in round 1")),
]
GOLDEN_SHA256 = {
    "join_request": "adaaad1b2427486174b62762f6a1486d23e5819f53785b4083528b248d4996e2",
    "join_ack": "46cacdacff3daac0e14915c0e8682d0bb1029939002f47f13e5994d558b45e85",
    "task_assignment": "aa610a8abb0dc8f1e04fef9668d47d97e525535e7ed5bc96732e3f9090a465be",
    "update_submission": "92b871362d73e661dad1249c29414449f2d8d38d1f976a9bf177a15c0177139e",
    "experiment_done": "f84ca3940bef7e867cd1fdd1a7befe82209c395ead9301a2eb5858c7f66551d1",
    "abort": "e96b611e6f48afdc8903fe8ca429ed7789d957773ed2b6b511ff8270f727ab3c",
}


class TestGoldenFrames:
    @pytest.mark.parametrize("msg", GOLDEN, ids=[m.kind for m in GOLDEN])
    def test_frame_digest(self, msg):
        frame = encode(msg)
        assert hashlib.sha256(frame).hexdigest() == GOLDEN_SHA256[msg.kind]
        assert decode(frame) == msg


def frame_of(document) -> bytes:
    payload = json.dumps(document).encode()
    return len(payload).to_bytes(4, "big") + payload


def feed_in_chunks(stream: bytes, sizes) -> list:
    decoder = FrameDecoder()
    got, start, turn = [], 0, 0
    while start < len(stream):
        size = sizes[turn % len(sizes)]
        got.extend(decoder.feed(stream[start : start + size]))
        start, turn = start + size, turn + 1
    return got


GOLDEN_STREAM = b"".join(encode(m) for m in GOLDEN)


class TestDecoderFuzz:
    """Whatever bytes arrive, a decoder yields messages or raises
    ProtocolError, the one error a connection reader handles."""

    @given(
        st.lists(st.tuples(st.integers(0, len(GOLDEN_STREAM)), st.sampled_from("rdi"),
                           st.integers(0, 255)), max_size=8),
        st.lists(st.integers(1, 64), min_size=1, max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_corrupted_stream(self, edits, sizes):
        stream = bytearray(GOLDEN_STREAM)
        for position, op, byte in edits:
            position = min(position, len(stream) - 1)
            if op == "r":
                stream[position] = byte
            elif op == "d":
                del stream[position]
            else:
                stream.insert(position, byte)
        try:
            got = feed_in_chunks(bytes(stream), sizes)
        except ProtocolError:
            return
        assert all(isinstance(m, Message) for m in got)

    @given(st.binary(max_size=256), st.lists(st.integers(1, 64), min_size=1, max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_arbitrary_bytes(self, stream, sizes):
        try:
            feed_in_chunks(stream, sizes)
        except ProtocolError:
            pass

    @pytest.mark.parametrize(
        "payload",
        [
            b'{"body":{"params":{"f64le":"' + base64.b64encode(bytes(400) + b"\0" * 6 + b"\xf0\x7f")
            + b'"},"sample_count":1,"train_seconds":0.0},'
            b'"client_id":"c","kind":"update_submission","round":0}',
            b'{"body":{"params":{"f64le":"AAAAAAAA8D8="},"sample_count":1,"train_seconds":1'
            + b"0" * 400 + b'},"client_id":"c","kind":"update_submission","round":0}',
            b'{"body":{},"client_id":"c","kind":"experiment_done","round":' + b"1" * 5000 + b"}",
            b"[" * 100_000,
        ],
        ids=["huge-param", "huge-train-seconds", "overlong-integer", "deep-nesting"],
    )
    def test_hostile_payloads(self, payload):
        with pytest.raises(ProtocolError):
            FrameDecoder().feed(len(payload).to_bytes(4, "big") + payload)


# The JSON type of every body key of each kind, as paths into the body.
WIRE_TYPES = {
    "join_ack": {
        ("accepted",): "boolean",
        ("current_round",): "integer",
        ("algorithm",): "object",
        ("algorithm", "kind"): "string",
        ("algorithm", "prox_mu"): "number",
        ("algorithm", "ditto_lambda"): "number",
        ("algorithm", "weighting"): "string",
        ("reason",): "string",
    },
    "task_assignment": {("params",): "object", ("params", VECTOR_KEY): "string"},
    "update_submission": {
        ("params",): "object",
        ("params", VECTOR_KEY): "string",
        ("sample_count",): "integer",
        ("train_seconds",): "number",
    },
    "abort": {("reason",): "string"},
}
BODY_PATHS = [(kind, path) for kind, paths in WIRE_TYPES.items() for path in paths]
OBJECT_PATHS = [(m.kind, ()) for m in GOLDEN] + [("join_ack", ("algorithm",)),
                                                 ("task_assignment", ("params",))]
# The vector's base64 key replaced the number array's elements, and its
# cases keep their name.
VECTOR_PATH = ("params", VECTOR_KEY)


def case_ids(cases) -> list:
    return [f"{kind}:{'params.0' if path == VECTOR_PATH else '.'.join(map(str, path)) or 'body'}"
            for kind, path in cases]
JSON_TYPES = {bool: "boolean", int: "integer", float: "number", str: "string",
              list: "array", dict: "object", type(None): "null"}
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def golden_document(kind: str) -> dict:
    msg = next(m for m in GOLDEN if m.kind == kind)
    return json.loads(encode(msg)[4:])


def body_at(document: dict, path: tuple):
    node = document["body"]
    for key in path:
        node = node[key]
    return node


def schema_paths(cls, prefix=()):
    """Every key path of a JSON document of dataclass ``cls``, read from
    the codec's schema."""
    for name, (_, shape, arg, _) in params._schema(cls).items():
        path = prefix + (name,)
        yield path
        if shape is params._OBJECT:
            yield from schema_paths(arg, path)
        elif shape is params._VECTOR:
            yield path + (VECTOR_KEY,)


def test_wire_types_cover_every_body_key():
    # A body field added without a WIRE_TYPES entry would escape the
    # mutation tests below.
    derived = {kind: set(schema_paths(cls)) for kind, cls in _BODY_TYPES.items()
               if cls is not type(None)}
    derived["update_submission"] -= {("round",), ("client_id",)}  # the envelope's
    assert derived == {kind: set(paths) for kind, paths in WIRE_TYPES.items()}


class TestBodyMutations:
    """Every body key is required, no other key is allowed, and each key
    takes one JSON type; anything else is a ProtocolError naming the key."""

    KEY_PATHS = [c for c in BODY_PATHS if c[1] != VECTOR_PATH]  # see TestVectorForm

    @pytest.mark.parametrize("kind, path", KEY_PATHS, ids=case_ids(KEY_PATHS))
    def test_dropped_key(self, kind, path):
        document = golden_document(kind)
        del body_at(document, path[:-1])[path[-1]]
        with pytest.raises(ProtocolError, match=path[-1]):
            decode(frame_of(document))

    @pytest.mark.parametrize("kind, path", OBJECT_PATHS, ids=case_ids(OBJECT_PATHS))
    @given(key=st.text(max_size=8), value=json_values)
    @settings(max_examples=20, deadline=None)
    def test_added_key(self, kind, path, key, value):
        document = golden_document(kind)
        target = body_at(document, path)
        if key in target:
            key += "_extra"
        target[key] = value
        with pytest.raises(ProtocolError):
            decode(frame_of(document))

    @pytest.mark.parametrize("kind, path", BODY_PATHS, ids=case_ids(BODY_PATHS))
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_wrong_json_type(self, kind, path, data):
        want = WIRE_TYPES[kind][path]
        accepted = {"integer", "number"} if want == "number" else {want}
        value = data.draw(json_values.filter(lambda v: JSON_TYPES[type(v)] not in accepted))
        document = golden_document(kind)
        body_at(document, path[:-1])[path[-1]] = value
        key = [part for part in path if isinstance(part, str)][-1]
        with pytest.raises(ProtocolError, match=key):
            decode(frame_of(document))


class TestBodyErrors:
    """A body error names one key path in the codec's own words."""

    @pytest.mark.parametrize(
        "kind, edit, message",
        [
            ("join_ack", lambda body: body.pop("reason"), "body: reason: missing required key"),
            ("join_ack", lambda body: body["algorithm"].pop("weighting"),
             "body: algorithm.weighting: missing required key"),
            ("join_ack", lambda body: body["algorithm"].update(x=1),
             "body: algorithm.x: unknown key"),
            ("abort", lambda body: body.pop("reason"), "body: reason: missing required key"),
            ("update_submission", lambda body: body.update(round=3), "body: round: unknown key"),
            ("experiment_done", lambda body: body.update(x=1), "body must be the empty object"),
        ],
        ids=["ack-reason", "ack-weighting", "ack-extra", "abort-reason", "update-round",
             "done-extra"],
    )
    def test_message(self, kind, edit, message):
        document = golden_document(kind)
        edit(document["body"])
        with pytest.raises(ProtocolError) as info:
            decode(frame_of(document))
        assert str(info.value) == f"{kind} {message}"


class TestLargeIntegers:
    """A float body field takes any JSON integer that fits a float; one
    beyond float range is a ProtocolError, and no message quotes numpy."""

    def test_update_with_huge_train_seconds_round_trips(self):
        update = ModelUpdate("c", 1, ParameterVector([1.0, -2.0]), 3, train_seconds=2**64)
        msg = Message("update_submission", 1, "c", update)
        again = decode(encode(msg))
        assert again == msg
        assert again.body.train_seconds == 2**64
        document = golden_document("update_submission")
        document["body"]["train_seconds"] = 2**64
        assert decode(frame_of(document)).body.train_seconds == 2**64

    def test_fedprox_ack_with_huge_prox_mu_round_trips(self):
        ack = JoinAck(accepted=True, current_round=2,
                      algorithm=AlgorithmConfig(kind="fedprox", prox_mu=2**64))
        msg = Message("join_ack", 2, "c", ack)
        again = decode(encode(msg))
        assert again == msg
        assert again.body.algorithm.prox_mu == 2**64

    @pytest.mark.parametrize("value", [2**64, 2**1023, 10**400, -(2**64)],
                             ids=["2^64", "2^1023", "10^400", "-2^64"])
    @pytest.mark.parametrize("kind, path", [
        ("update_submission", ("train_seconds",)),
        ("task_assignment", ("params", 0)),
        ("task_assignment", ("params", 1)),
        ("join_ack", ("algorithm", "prox_mu")),
        ("join_ack", ("algorithm", "ditto_lambda")),
    ])
    def test_errors_never_quote_numpy(self, kind, path, value):
        document = golden_document(kind)
        if path[0] == "params":
            # The vector's bytes take the float the integer reads as, and a
            # JSON parser reads one beyond float range as infinite.
            raw = base64.b64decode(document["body"]["params"][VECTOR_KEY])
            values = np.frombuffer(raw, "<f8").copy()
            try:
                values[path[1]] = float(value)
            except OverflowError:
                values[path[1]] = math.inf if value > 0 else -math.inf
            document["body"]["params"] = f64le(*values)
        else:
            body_at(document, path[:-1])[path[-1]] = value
        if path[-1] == "ditto_lambda":
            document["body"]["algorithm"]["kind"] = "ditto"
            document["body"]["algorithm"]["prox_mu"] = 0.0
        lowest = -(2**1024) if path[0] == "params" else 0  # params may be negative
        if lowest < value < 2**1024:  # a finite float: accepted
            decode(frame_of(document))
            return
        with pytest.raises(ProtocolError) as info:
            decode(frame_of(document))
        assert "ufunc" not in str(info.value)

    @pytest.mark.parametrize("kind, path", [
        ("update_submission", ("train_seconds",)),
        ("join_ack", ("algorithm", "prox_mu")),
    ])
    def test_integer_beyond_float_range_names_its_key(self, kind, path):
        document = golden_document(kind)
        body_at(document, path[:-1])[path[-1]] = 10**400
        with pytest.raises(ProtocolError) as info:
            decode(frame_of(document))
        key = ".".join(path)
        assert str(info.value) == f"{kind} body: {key}: invalid value: int too large to convert to float"


# Finite float64 values at the edges of the format: both zeros, the
# smallest subnormals and the largest magnitudes.
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308]


class TestVectorForm:
    """A vector travels as base64 of its little-endian float64 bytes: every
    finite bit pattern round-trips exactly, and anything else is a
    ProtocolError naming ``params``."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 49, 10**4])
    @given(seed=st.integers(0, 2**32 - 1),
           edges=st.lists(st.sampled_from(EDGE_VALUES), min_size=1, max_size=6),
           floats=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4))
    @settings(max_examples=20, deadline=None)
    def test_finite_bit_patterns_round_trip(self, dim, seed, edges, floats):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 2**64, size=dim, dtype=np.uint64).view(np.float64)
        values[~np.isfinite(values)] = -0.0
        specials = edges + floats
        positions = rng.permutation(dim)[: len(specials)]
        values[positions] = specials[: len(positions)]
        params = ParameterVector(values)
        for msg in (
            Message("task_assignment", 7, "basel", TaskAssignment(params)),
            Message("update_submission", 7, "basel", ModelUpdate("basel", 7, params, 3)),
        ):
            again = decode(encode(msg)).body.params
            assert again.values.tobytes() == values.tobytes()

    def test_form_is_base64_of_little_endian_bytes(self):
        document = golden_document("task_assignment")
        raw = np.array([0.1, -2.5, 1e-17], dtype="<f8").tobytes()
        assert document["body"]["params"] == {"f64le": base64.b64encode(raw).decode()}

    @pytest.mark.parametrize("kind", ["task_assignment", "update_submission"])
    @pytest.mark.parametrize(
        "params, key, why",
        [
            ([0.1, -2.5], "params", "expected object, got array"),
            ({}, "params.f64le", "missing required key"),
            ({**f64le(1.0), "shape": [1]}, "params.shape", "unknown key"),
            ({"f64le": 5}, "params.f64le", "expected string, got integer"),
            ({"f64le": "AAAA AAAAAAA="}, "params.f64le", "not base64"),
            ({"f64le": "AAAAAAAAAAA"}, "params.f64le", "not base64"),
            ({"f64le": "AAAAAAAAAA\u00e9="}, "params.f64le", "not base64"),
            ({"f64le": "AAAAAAAA8D8=AAAA"}, "params.f64le", "not base64"),
            ({"f64le": ""}, "params.f64le", "0 bytes is not a nonzero multiple of 8"),
            ({"f64le": "AAAAAA=="}, "params.f64le", "4 bytes is not a nonzero multiple of 8"),
            ({"f64le": "AAAAAAAA8D8A"}, "params.f64le", "9 bytes is not a nonzero multiple of 8"),
            (f64le(1.0, math.inf), "params.f64le", "non-finite"),
            (f64le(-math.inf), "params.f64le", "non-finite"),
            (f64le(math.nan, 1.0), "params.f64le", "non-finite"),
        ],
        ids=["array", "missing", "extra", "not-a-string", "space", "padding", "non-ascii",
             "past-padding", "empty", "four-bytes", "nine-bytes", "inf", "minus-inf", "nan"],
    )
    def test_rejection_names_params(self, kind, params, key, why):
        document = golden_document(kind)
        document["body"]["params"] = params
        with pytest.raises(ProtocolError) as info:
            decode(frame_of(document))
        assert f"{kind} body: {key}: " in str(info.value)
        assert why in str(info.value)


def document_of(value):
    """The JSON document of a body value as a dict-building encoder forms
    it: a dataclass becomes its fields, a vector its base64 object."""
    if isinstance(value, ParameterVector):
        return {VECTOR_KEY: base64.b64encode(value.values.astype("<f8").tobytes()).decode("ascii")}
    if dataclasses.is_dataclass(value):
        return {f.name: document_of(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def oracle_frame(msg: Message) -> bytes:
    """The frame of ``msg`` by ``json.dumps`` of its whole document."""
    body = {} if msg.body is None else document_of(msg.body)
    if msg.kind == "update_submission":
        del body["round"], body["client_id"]
    document = {"kind": msg.kind, "round": msg.round, "client_id": msg.client_id, "body": body}
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"), allow_nan=False).encode()
    return len(payload).to_bytes(4, "big") + payload


EXTREME_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1.1125369292536007e-308, 2.2250738585072014e-308,
                  1.7976931348623157e308, -1.7976931348623157e308]
# Non-ASCII characters, a lone surrogate, quotes and control characters.
texts = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800 \U000103ff\u03c9\u00e9'), max_size=12)
rounds = st.integers(0, 2**63)
vectors = st.lists(st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(EXTREME_FLOATS),
                   min_size=1, max_size=64).map(ParameterVector)
# A float field also holds an integer, which the wire keeps as one.
coefficients = (st.floats(0, 1e300) | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308])
                | st.integers(0, 2**64))
algorithms = st.one_of(
    st.builds(AlgorithmConfig, st.just("fedavg"), st.sampled_from([0.0, -0.0, 0]),
              st.sampled_from([0.0, -0.0, 0]), st.sampled_from(["sample_count", "uniform"])),
    st.builds(AlgorithmConfig, st.sampled_from(["fedprox", "ditto"]), coefficients, coefficients,
              st.sampled_from(["sample_count", "uniform"])),
)


@st.composite
def messages(draw) -> Message:
    kind, round_index, client = draw(st.sampled_from(MESSAGE_KINDS)), draw(rounds), draw(texts)
    body = None
    if kind == "join_ack":
        body = JoinAck(draw(st.booleans()), draw(rounds), draw(algorithms), draw(texts))
    elif kind == "task_assignment":
        body = TaskAssignment(draw(vectors))
    elif kind == "update_submission":
        body = ModelUpdate(client, round_index, draw(vectors), draw(st.integers(1, 2**53)),
                           draw(coefficients))
    elif kind == "abort":
        body = Abort(draw(texts))
    return Message(kind, round_index, client, body)


class TestWriterOracle:
    """Each frame is the length prefix plus json.dumps of the message's
    whole document, and decodes back to the message."""

    @given(messages())
    @settings(max_examples=400, deadline=None)
    def test_frame_is_json_dumps_of_the_document(self, msg):
        frame = encode(msg)
        assert frame == oracle_frame(msg)
        again = decode(frame)
        assert again == msg
        if msg.kind in ("task_assignment", "update_submission"):
            assert again.body.params.values.tobytes() == msg.body.params.values.tobytes()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_train_seconds_is_an_encode_error(self, value):
        update = ModelUpdate("c", 0, ParameterVector([1.0]), 1)
        object.__setattr__(update, "train_seconds", value)
        with pytest.raises(EncodeError) as info:
            encode(Message("update_submission", 0, "c", update))
        assert str(info.value) == ("message contains non-finite values: "
                                   "Out of range float values are not JSON compliant")


def python_calls(call) -> int:
    """The Python-level call events of ``call()``, its own call included."""
    events = []
    sys.setprofile(lambda frame, event, arg: events.append(event))
    try:
        call()
    finally:
        sys.setprofile(None)
    return events.count("call")


class TestCallBudget:
    """Encoding or decoding a small frame makes few Python-level calls: the
    per-class writer and decoder do the work inline. The dict-building
    codec counted 7 for an encode and 23-24 for a decode."""

    VECTOR = ParameterVector([0.5, -1.25])
    FRAMES = [Message("task_assignment", 3, "basel", TaskAssignment(VECTOR)),
              Message("update_submission", 3, "basel", ModelUpdate("basel", 3, VECTOR, 24, 0.25))]

    @pytest.mark.parametrize("msg", FRAMES, ids=["task", "update"])
    def test_encode_and_decode_call_counts(self, msg):
        frame = encode(msg)
        assert decode(frame) == msg  # every plan is built before counting
        assert python_calls(lambda: encode(msg)) <= 3
        assert python_calls(lambda: decode(frame)) <= 20
