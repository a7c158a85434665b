"""Length-prefixed JSON wire protocol for the distributed deployment.

Frame layout, the bit-exact external contract any compliant peer must
speak:

    [4-byte big-endian unsigned payload length][payload]

where the payload is compact UTF-8 JSON ``{"kind", "round", "client_id",
"body"}`` with keys sorted. A body holds its kind's dataclass fields, less
those the envelope carries. The class's compiled writer
(:func:`~fedkit.params.json_writer`) writes it straight to JSON text, and
its compiled wire-mode decoder (:func:`~fedkit.params.from_json` with
``wire=True``) reads it back: every key at every depth is required,
defaults or not, and a body error reads ``<kind> body: <key path>: <why>``.
A parameter vector travels as ``{"f64le": "<base64 of its little-endian
float64 bytes>"}``, about 10.7 bytes per parameter, so a decoded vector is
bit-identical to the encoded one. A decoder takes exactly that one key,
strict base64 (no whitespace or other characters), a nonzero multiple of 8
bytes and finite values. Frames over 256 MiB are rejected on both sides,
which bounds memory against malformed length prefixes; a server caps a
connection at 4 KiB, or at the longest site name's join_request
(:func:`max_join_payload`), until it joins, then at the largest update the
model's dimension allows (:func:`max_update_payload`).

The experiment's algorithm travels once per connection, in the
``join_ack`` body; a ``task_assignment`` body carries only the round's
global ``params``. A client that receives a task before any accepted ack
treats it as a :class:`~fedkit.errors.ProtocolError` and reconnects.

SECURITY: frames are neither encrypted nor authenticated, deliberately.
Insufficient transport encryption and authentication are known gaps of this
proof of concept; run it only on trusted networks.

Decoders are stateful: use one ``FrameDecoder`` per connection, never
shared.
"""

import functools
import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, Union

from .aggregation import AlgorithmConfig
from .errors import EncodeError, ProtocolError
from .params import (
    MAX_SAMPLE_COUNT,
    ModelUpdate,
    ParameterVector,
    from_json,
    json_writer,
)

MAX_FRAME_BYTES = 256 * 1024 * 1024
_LENGTH_BYTES = 4
# The scanner under json.loads: what it reads whole from offset 0, or an error
# it raises there, is json.loads's, without json.loads's three Python calls.
_SCAN = json.JSONDecoder().scan_once


@dataclass(frozen=True)
class JoinAck:
    """The server's answer to a join. It carries the experiment's algorithm,
    refused or not, so the task frames of a connection need not."""

    accepted: bool
    current_round: int
    algorithm: AlgorithmConfig
    reason: str = ""


@dataclass(frozen=True)
class TaskAssignment:
    params: ParameterVector


@dataclass(frozen=True)
class Abort:
    reason: str = ""


Body = Union[None, JoinAck, TaskAssignment, ModelUpdate, Abort]

_BODY_TYPES = {
    "join_request": type(None),
    "join_ack": JoinAck,
    "task_assignment": TaskAssignment,
    "update_submission": ModelUpdate,
    "experiment_done": type(None),
    "abort": Abort,
}
MESSAGE_KINDS = tuple(_BODY_TYPES)
_ENVELOPE_KEYS = frozenset(("kind", "round", "client_id", "body"))


@functools.cache
def _body_writer(kind: str):
    # An update's envelope carries its round and client id.
    omit = ("client_id", "round") if kind == "update_submission" else ()
    return json_writer(_BODY_TYPES[kind], omit)


def _check_envelope(round_index, client_id) -> None:
    if not isinstance(round_index, int) or isinstance(round_index, bool) or round_index < 0:
        raise ProtocolError(f"round must be a non-negative integer, got {round_index!r}")
    if not isinstance(client_id, str):
        raise ProtocolError("client_id must be a string")


@dataclass(frozen=True)
class Message:
    """Wire envelope; the kind determines the body type exhaustively."""

    kind: str
    round: int
    client_id: str
    body: Body = None

    def __post_init__(self):
        if self.kind not in MESSAGE_KINDS:
            raise ProtocolError(f"unknown message kind {self.kind!r}")
        _check_envelope(self.round, self.client_id)
        want = _BODY_TYPES[self.kind]
        if not isinstance(self.body, want):
            raise ProtocolError(
                f"kind {self.kind!r} requires body {want.__name__}, got {type(self.body).__name__}"
            )
        if self.kind == "update_submission":
            if self.body.round != self.round:
                raise ProtocolError(
                    f"update round {self.body.round} does not match envelope round {self.round}"
                )
            if self.body.client_id != self.client_id:
                raise ProtocolError(
                    f"update client {self.body.client_id!r} does not match envelope {self.client_id!r}"
                )


def encode(msg: Message) -> bytes:
    """Serialize a message into one frame."""
    try:
        body = "{}" if msg.body is None else _body_writer(msg.kind)(msg.body)
    except ValueError as exc:
        raise EncodeError(f"message contains non-finite values: {exc}") from exc
    # The envelope's keys in sorted order; a kind is a plain ASCII name.
    payload = (f'{{"body":{body},"client_id":{encode_basestring_ascii(msg.client_id)},'
               f'"kind":"{msg.kind}","round":{int.__repr__(msg.round)}}}').encode()
    if len(payload) > MAX_FRAME_BYTES:
        raise EncodeError(f"payload of {len(payload)} bytes exceeds the {MAX_FRAME_BYTES}-byte cap")
    return len(payload).to_bytes(_LENGTH_BYTES, "big") + payload


def _base64_length(dim: int) -> int:
    return 4 * -(-8 * dim // 3)


def max_update_payload(dim: int, client_ids: Iterable[str], rounds: int) -> int:
    """The largest update payload :func:`encode` writes for a dim-``dim``
    model in an experiment of ``rounds`` rounds: the longest client id, the
    last round, a ``sample_count`` of 2^53 and the longest printed
    ``train_seconds``. Only the vector's base64 grows with ``dim``, so this
    encodes a dim-1 update and adds the difference."""
    client_id = max(client_ids, key=lambda name: len(encode_basestring_ascii(name)))
    update = ModelUpdate(client_id, rounds - 1, ParameterVector([0.0]), MAX_SAMPLE_COUNT,
                         train_seconds=sys.float_info.max)
    frame = encode(Message("update_submission", rounds - 1, client_id, update))
    return len(frame) - _LENGTH_BYTES - _base64_length(1) + _base64_length(dim)


def max_join_payload(client_ids: Iterable[str]) -> int:
    """The largest join_request payload :func:`encode` writes for one of ``client_ids``."""
    return max(len(encode(Message("join_request", 0, name))) for name in client_ids) - _LENGTH_BYTES


def _decode_payload(payload: bytes) -> Message:
    try:
        text = payload.decode("utf-8")
        try:
            document, end = _SCAN(text, 0)
        except StopIteration:  # no value at offset 0, such as leading whitespace
            end = None
        if end != len(text):  # json.loads takes surrounding whitespace or names the error
            document = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers bad UTF-8, bad JSON and integers too long to
        # parse; RecursionError, arrays nested too deep.
        raise ProtocolError(f"malformed payload: {exc}") from exc
    if type(document) is not dict or document.keys() != _ENVELOPE_KEYS:
        raise ProtocolError(f"envelope must be an object of the keys {sorted(_ENVELOPE_KEYS)}")
    kind, round_index, client_id = document["kind"], document["round"], document["client_id"]
    if kind not in MESSAGE_KINDS:  # a tuple: an unhashable kind is no TypeError
        raise ProtocolError(f"unknown message kind {kind!r}")
    # Envelope first: an update's body decode takes its round and client id.
    _check_envelope(round_index, client_id)
    cls, body = _BODY_TYPES[kind], document["body"]
    if cls is type(None):
        if body != {}:
            raise ProtocolError(f"{kind} body must be the empty object")
        body = None
    else:

        def fail(key: str, why: str) -> ProtocolError:
            return ProtocolError(f"{kind} body: {key}: {why}" if key else f"{kind} body: {why}")

        # An update's round and client id are the envelope's.
        given = {"round": round_index, "client_id": client_id} if cls is ModelUpdate else {}
        body = from_json(cls, body, fail, wire=True, **given)
    return Message(kind=kind, round=round_index, client_id=client_id, body=body)


def _check_length(length: int, cap: int) -> None:
    if length > cap:
        raise ProtocolError(f"frame of {length} bytes exceeds the {cap}-byte cap")


def decode(frame: bytes) -> Message:
    """Decode exactly one complete frame; the inverse of :func:`encode`.

    Raises :class:`ProtocolError` for anything else: a truncated frame,
    trailing bytes after the frame, or a malformed payload. A byte stream is
    read with :class:`FrameDecoder`.
    """
    frame = bytes(frame)
    # A prefix shorter than 4 bytes reads as a length, too, and never fits.
    length = int.from_bytes(frame[:_LENGTH_BYTES], "big")
    _check_length(length, MAX_FRAME_BYTES)
    if len(frame) != _LENGTH_BYTES + length:
        raise ProtocolError(f"not one frame: {len(frame)} bytes for a {length}-byte payload")
    return _decode_payload(frame[_LENGTH_BYTES:])


class FrameDecoder:
    """Incremental decoder for a stream of concatenated frames.

    Chunk boundaries are irrelevant: feeding a byte stream one byte at a
    time yields the same message list as feeding it whole. ``cap`` is the
    payload limit, ``MAX_FRAME_BYTES`` unless given; a larger length prefix
    is a ProtocolError before any of its payload is buffered.
    """

    def __init__(self, cap: int = MAX_FRAME_BYTES):
        self._buffer = bytearray()
        self.cap = cap

    def feed(self, chunk: bytes) -> list[Message]:
        self._buffer.extend(chunk)
        messages = []
        while True:
            if len(self._buffer) < _LENGTH_BYTES:
                return messages
            length = int.from_bytes(self._buffer[:_LENGTH_BYTES], "big")
            _check_length(length, self.cap)
            if len(self._buffer) < _LENGTH_BYTES + length:
                return messages
            payload = bytes(self._buffer[_LENGTH_BYTES : _LENGTH_BYTES + length])
            del self._buffer[: _LENGTH_BYTES + length]
            messages.append(_decode_payload(payload))
