"""Shared value types: parameter vectors, model updates, and evaluation scores.

Parameters travel as a single flat float64 vector; layer structure is the
trainer's private concern, which keeps aggregation code trainer-independent.
All types here are immutable values after construction and safe to share
between threads without coordination.
"""

import base64
import collections.abc
import dataclasses
import functools
import json
import math
import types
import typing
from binascii import b2a_base64
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, DomainError, FedkitError, NumericError

EVAL_METRICS = ("dice", "mse_loss")
# An aggregation weight above this is no longer exact in float64.
MAX_SAMPLE_COUNT = 2**53


# Up to this many entries, all_finite checks them as Python floats: on a
# few entries numpy's per-call cost (~2 µs) outweighs its loop. The two
# checks cost the same at 48-56 entries (Python 3.11, numpy 2.4, one x86-64
# vCPU: the float loop was faster in 11 of 15 interleaved trials at 48
# entries, in 4 of 15 at 56, in none at 64).
_SMALL = 48


def all_finite(arr: np.ndarray) -> bool:
    """Whether every entry of a float array is finite."""
    if arr.size <= _SMALL:
        return all(map(math.isfinite, arr.tolist()))
    return bool(np.isfinite(arr).all())


# A vector's values are little-endian float64, the wire's byte order.
_F64LE = np.dtype("<f8")


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """Flat, ordered little-endian float64 weights; the unit exchanged with the server."""

    values: np.ndarray

    def __post_init__(self):
        # A copy, made read-only; numpy parses keyword arguments slowly.
        arr = np.array(self.values, _F64LE)
        arr.setflags(False)
        if arr.ndim != 1:
            raise DimensionError(f"parameter vector must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise DimensionError("parameter vector must have at least one element")
        if not all_finite(arr):
            raise NumericError("parameter vector contains non-finite values")
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return int(self.values.size)

    @classmethod
    def zeros(cls, dim: int) -> "ParameterVector":
        return cls(np.zeros(int(dim), dtype=np.float64))

    def tolist(self) -> list:
        return self.values.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterVector):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        head = ", ".join(repr(v) for v in self.values[:4].tolist())
        tail = ", ..." if self.dim > 4 else ""
        return f"ParameterVector([{head}{tail}], dim={self.dim})"


@dataclass(frozen=True)
class ModelUpdate:
    """A client's post-training parameters plus the sample count used as its
    aggregation weight and the (measured or simulated) training time."""

    client_id: str
    round: int
    params: ParameterVector
    sample_count: int
    train_seconds: float = 0.0

    def __post_init__(self):
        if type(self.round) is not int or self.round < 0:
            raise DomainError(f"round must be a non-negative integer, got {self.round!r}")
        if not 1 <= self.sample_count <= MAX_SAMPLE_COUNT:
            raise DomainError(f"sample_count must lie in [1, 2^53], got {self.sample_count}")
        if not math.isfinite(self.train_seconds) or self.train_seconds < 0:
            raise NumericError(f"train_seconds must be finite and >= 0, got {self.train_seconds}")


@dataclass(frozen=True)
class EvalScore:
    """Mean/std of a metric over a site's evaluation cases (std is across cases)."""

    mean: float
    std: float
    metric: str

    def __post_init__(self):
        if self.metric not in EVAL_METRICS:
            raise DomainError(f"unknown metric {self.metric!r}; expected one of {EVAL_METRICS}")
        if not math.isfinite(self.mean) or not math.isfinite(self.std):
            raise NumericError("score mean/std must be finite")
        if self.std < 0:
            raise DomainError(f"std must be non-negative, got {self.std}")
        if self.metric == "dice" and not 0.0 <= self.mean <= 1.0:
            raise DomainError(f"dice mean must lie in [0, 1], got {self.mean}")


def add_scaled(a: ParameterVector, b: ParameterVector, coeff: float) -> ParameterVector:
    """Element-wise a + coeff * b."""
    if a.dim != b.dim:
        raise DimensionError(f"dim mismatch: {a.dim} vs {b.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = a.values + coeff * b.values
    if not all_finite(out):
        raise NumericError("add_scaled produced a non-finite result")
    return ParameterVector(out)


def l2_distance(a: ParameterVector, b: ParameterVector) -> float:
    """Euclidean distance between two equal-dimension vectors."""
    if a.dim != b.dim:
        raise DimensionError(f"dim mismatch: {a.dim} vs {b.dim}")
    return float(np.linalg.norm(a.values - b.values))


def dice_score(predicted: Sequence | Iterable, truth: Sequence | Iterable) -> float:
    """Overlap 2*|A∩B| / (|A|+|B|) between two flat 0/1 masks.

    Defined as 1.0 when both masks are all-zero (perfect agreement on the
    empty segmentation), which keeps the metric total.
    """
    p = np.asarray(predicted)
    t = np.asarray(truth)
    if p.ndim != 1 or t.ndim != 1 or p.shape != t.shape:
        raise DimensionError(f"mask shape mismatch: {p.shape} vs {t.shape}")
    for name, m in (("predicted", p), ("truth", t)):
        if not np.all((m == 0) | (m == 1)):
            raise DomainError(f"{name} mask contains non-binary entries")
    size_p = int(np.count_nonzero(p))
    size_t = int(np.count_nonzero(t))
    if size_p + size_t == 0:
        return 1.0
    intersection = int(np.count_nonzero((p == 1) & (t == 1)))
    return (2 * intersection) / (size_p + size_t)


# The one key of a parameter vector's JSON object; its value is the base64
# of the vector's little-endian float64 bytes.
VECTOR_KEY = "f64le"


def json_default(value):
    """``json``'s ``default``, one level deep: a parameter vector becomes
    ``{"f64le": base64 of its little-endian float64 bytes}`` and a dataclass
    ``{field: value}``; ``json`` does the rest of the recursion."""
    if isinstance(value, ParameterVector):
        return {VECTOR_KEY: b2a_base64(value.values.tobytes(), newline=False).decode()}
    if dataclasses.is_dataclass(value):
        return {name: getattr(value, name) for name in _schema(type(value))}
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def to_json(value):
    """The JSON document of a value: what ``json`` writes of it with
    :func:`json_default`, read back. :func:`from_json` is the inverse, so
    the dataclasses are the one schema of reports, configs and frames."""
    return json.loads(json.dumps(value, default=json_default))


# Names of field annotations and of JSON value types, for messages.
_TYPE_NAMES = {int: "integer", float: "number", str: "string", bool: "boolean",
               list: "array", dict: "object", type(None): "null"}
# How a field's JSON value becomes the field: kept after a type check, a
# nested object, an array, a mapping, or a vector.
_VALUE, _OBJECT, _ARRAY, _MAPPING, _VECTOR = range(5)


@functools.cache
def _shape(hint) -> tuple:
    """(shape, argument, nullable) of an annotation. The argument is the
    nested dataclass, the shape of an array's elements or of a mapping's
    values, or a plain value's (expected-type phrase, annotated types): it
    takes exactly those (so a bool is no int), and a number also takes an
    integer. ``Optional[X]`` of a shape other than a plain value is X or null."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        shape, arg, _ = _shape(args[1] if args[0] is type(None) else args[0])
        if shape is not _VALUE:
            return shape, arg, True
    if hint is ParameterVector:
        return _VECTOR, None, False
    if dataclasses.is_dataclass(hint):
        return _OBJECT, hint, False
    if origin is tuple and len(args) == 2 and args[1] is Ellipsis:
        return _ARRAY, _shape(args[0]), False
    if origin is collections.abc.Mapping:
        return _MAPPING, _shape(args[1]), False
    kinds = args if origin in (typing.Union, types.UnionType) else (hint,)
    return _VALUE, (" or ".join(_TYPE_NAMES[k] for k in kinds), kinds), False


@functools.cache
def _schema(cls) -> dict:
    """Per field of dataclass ``cls``: (required, shape, argument, nullable).
    Resolved once per class; the decoders and writers are built from it."""
    return {f.name: (f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING,
                     *_shape(f.type)) for f in dataclasses.fields(cls)}


def _path(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _parse_vector(value, fail, path: str) -> ParameterVector:
    """The vector of JSON ``{"f64le": base64}`` at key ``path``."""
    if type(value) is not dict:
        raise fail(path, f"invalid value: expected object, got {_TYPE_NAMES[type(value)]}")
    key = f"{path}.{VECTOR_KEY}"
    for name in value:
        if name != VECTOR_KEY:
            raise fail(_path(path, name), "unknown key")
    if not value:
        raise fail(key, "missing required key")
    text = value[VECTOR_KEY]
    if type(text) is not str:
        raise fail(key, f"invalid value: expected string, got {_TYPE_NAMES[type(text)]}")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or a non-ASCII character
        raise fail(key, f"invalid value: not base64: {exc}") from exc
    if not raw or len(raw) % _F64LE.itemsize:
        raise fail(key, f"invalid value: {len(raw)} bytes is not a nonzero multiple of 8")
    try:
        # Finiteness is the ParameterVector constructor's check.
        return ParameterVector(np.frombuffer(raw, _F64LE))
    except FedkitError as exc:
        raise fail(key, f"invalid value: {exc}") from exc


@functools.cache
def _converter(shape, arg, nullable, wire: bool):
    """``convert(value, fail, path)``: the field value of JSON ``value`` at key ``path``."""
    if shape is _VALUE:
        expected, kinds = arg

        def convert(value, fail, path):
            if type(value) in kinds:
                return value
            if type(value) is int and float in kinds:
                try:
                    float(value)  # the field keeps the integer
                except OverflowError as exc:
                    raise fail(path, f"invalid value: {exc}") from exc
                return value
            raise fail(path, f"invalid value: expected {expected}, got {_TYPE_NAMES[type(value)]}")
    elif shape is _OBJECT:
        convert = _decoder(arg, wire)
    elif shape is _VECTOR:
        convert = _parse_vector
    else:
        item = _converter(*arg, wire)
        container = dict if shape is _MAPPING else list

        def convert(value, fail, path):
            if type(value) is not container:
                raise fail(path, f"must be an {_TYPE_NAMES[container]}, got {_TYPE_NAMES[type(value)]}")
            if container is dict:
                return {key: item(v, fail, _path(path, key)) for key, v in value.items()}
            return tuple(item(v, fail, f"{path}[{index}]") for index, v in enumerate(value))
    if not nullable:
        return convert
    return lambda value, fail, path: None if value is None else convert(value, fail, path)


@functools.cache
def _decoder(cls, wire: bool):
    """``decode(obj, fail, where="", given=None)`` of dataclass ``cls``; see :func:`from_json`."""
    schema = _schema(cls)
    keys = frozenset(schema)
    # Per field: name, JSON types kept as they are, converter of other values, and what
    # an omitted key takes: an error (True), the default (False) or a nested object's.
    fields = [(name, arg[1] if shape is _VALUE else (), _converter(shape, arg, nullable, wire),
               _decoder(arg, False) if shape is _OBJECT and not (nullable or wire) else required or wire)
              for name, (required, shape, arg, nullable) in schema.items()]

    def decode(obj, fail, where="", given=None):
        if type(obj) is not dict:
            raise fail(where, f"must be an object, got {_TYPE_NAMES[type(obj)]}")
        kwargs = {} if given is None else given
        if not keys.issuperset(obj) or (kwargs and not kwargs.keys().isdisjoint(obj)):
            key = next(key for key in obj if key not in keys or key in kwargs)
            raise fail(_path(where, key), "unknown key")
        for name, kinds, convert, missing in fields:
            if name in obj:
                value = obj[name]  # a plain value of its field's type formats no key path
                kwargs[name] = value if type(value) in kinds else \
                    convert(value, fail, f"{where}.{name}" if where else name)
            elif missing and name not in kwargs:
                if missing is True:
                    raise fail(_path(where, name), "missing required key")
                kwargs[name] = missing({}, fail, _path(where, name))
        try:
            return cls(**kwargs)
        except FedkitError as exc:
            # A check that names a field first is about that field's key.
            name, _, why = str(exc).partition(" ")
            if name in schema:
                raise fail(_path(where, name), why) from exc
            raise fail(where, str(exc)) from exc
        except (TypeError, ValueError, AttributeError, OverflowError) as exc:
            # A value the JSON type check admits, or a ``given`` one, can
            # still fail inside the dataclass's own checks, which cannot
            # tell which key held it.
            raise fail(where, f"invalid value: {exc}") from exc

    return decode


def from_json(cls, obj, fail, where: str = "", *, wire: bool = False, **given):
    """Build dataclass ``cls`` from the JSON object ``obj`` at key path
    ``where``; the inverse of :func:`to_json`.

    An object takes exactly the field names of ``cls`` as keys. A field
    without a default is required, an omitted key takes its default, and an
    omitted nested object takes the defaults of all its keys. In ``wire``
    mode, the wire protocol's rule, every key at every depth is required,
    defaults or not. Each plain value's JSON type is checked against the
    field's annotation, an ``Optional`` field also takes null, and the
    dataclass's own checks run last. ``given`` fields come from the caller,
    not the document. Every failure raises ``fail(key path, why)``, the
    caller's error type. A decoder built once per class and mode does it.
    """
    return _decoder(cls, wire)(obj, fail, where, given)


# Each scalar type's JSON text as json.dumps writes it (repr of an exact int or float).
_SCALAR_TEXT = {str: encode_basestring_ascii, int: repr, float: repr,
                bool: ("false", "true").__getitem__, type(None): {None: "null"}.__getitem__}
_NON_FINITE = frozenset(("inf", "-inf", "nan"))
_json_text = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False, default=json_default).encode


@functools.cache
def json_writer(cls, omit: tuple = ()):
    """The writer of dataclass ``cls``, built once from its schema: value ->
    ``json.dumps(value, default=json_default, sort_keys=True,
    separators=(",", ":"), allow_nan=False)`` less the fields ``omit``, with
    no dict built between. A non-finite number raises ``ValueError``, as in
    json.dumps."""
    fields = [(encode_basestring_ascii(name) + ":", name,
               json_writer(arg) if shape is _OBJECT else _json_text)
              for name, (_, shape, arg, _) in sorted(_schema(cls).items()) if name not in omit]

    def write(value) -> str:
        parts = []
        for prefix, name, nested in fields:
            item = getattr(value, name)
            scalar = _SCALAR_TEXT.get(type(item))
            if scalar is not None:
                text = scalar(item)
                if text in _NON_FINITE:
                    raise ValueError("Out of range float values are not JSON compliant")
            elif type(item) is ParameterVector:
                text = f'{{"{VECTOR_KEY}":"{b2a_base64(item.values.tobytes(), newline=False).decode()}"}}'
            else:
                text = nested(item)
            parts.append(prefix + text)
        return "{" + ",".join(parts) + "}"

    return write
