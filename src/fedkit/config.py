"""One JSON config format shared by server, client, and simulator.

A config file is a single document: the fields of
:class:`~fedkit.server.FederationConfig` at the top level, plus an optional
``simulator`` block with the fields of :class:`~fedkit.simulator.SimScenario`
(timing model and fault schedule). The dataclasses are the schema. An
object accepts exactly its dataclass's field names as keys; a field without
a default is a required key, and an omitted key takes the field's default.
A field whose type is a dataclass (``algorithm``, ``trainer``,
``heterogeneity``) is a nested object, which may be omitted when all of its
own keys have defaults; a ``tuple[X, ...]`` field (``sites``, ``faults``)
is an array of such objects.

Unknown keys are rejected, each value's JSON type is checked against its
field's annotation (an ``int`` field takes no float or boolean, a ``float``
field also takes an integer, an ``Optional`` field also takes null), and
every module invariant is re-checked at load time. Any invalid value raises
:class:`~fedkit.errors.ConfigError` naming its key (an element of the wrong
type inside an array or a mapping names the key holding it), with a line
anchor into the file wherever one can be found. The config echo
in a report, :func:`~fedkit.server.config_to_dict`, parses back to an equal
config with the same config hash.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import re
import types
import typing
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError, FedkitError
from .server import FederationConfig
from .simulator import SimScenario


@dataclass(frozen=True)
class ConfigDocument:
    """A parsed config file: the federation, plus a scenario when the file
    carries simulator keys."""

    federation: FederationConfig
    scenario: Optional[SimScenario] = None


def _line_of(text: str, key: str) -> Optional[int]:
    # Best-effort anchor: the first line where the key appears quoted.
    pattern = re.compile(r'"' + re.escape(key) + r'"\s*:')
    for number, line in enumerate(text.splitlines(), start=1):
        if pattern.search(line):
            return number
    return None


class _Context:
    def __init__(self, text: str, source: str):
        self.text = text
        self.source = source

    def fail(self, key: str, why: str) -> ConfigError:
        # Anchor at the innermost part of the key path found in the file, so
        # a missing key points at the object that lacks it.
        lines = (_line_of(self.text, part) for part in reversed(key.split(".")) if part)
        line = next((n for n in lines if n is not None), None)
        anchor = f"{self.source}:{line}" if line is not None else self.source
        return ConfigError(f"{anchor}: {key}: {why}" if key else f"{anchor}: {why}")


def parse_config(text: str, source: str = "<config>") -> ConfigDocument:
    """Parse and validate a config document from its JSON text."""
    ctx = _Context(text, source)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    has_scenario = isinstance(doc, dict) and "simulator" in doc
    scenario_doc = doc.pop("simulator") if has_scenario else None
    federation = _build(ctx, FederationConfig, doc, "")
    scenario = None
    if has_scenario:
        scenario = _build(ctx, SimScenario, scenario_doc, "simulator", federation=federation)
    return ConfigDocument(federation=federation, scenario=scenario)


# Names of field annotations and of JSON value types, for messages.
_TYPE_NAMES = {
    int: "integer", float: "number", str: "string", bool: "boolean",
    tuple: "array", list: "array", dict: "object", type(None): "null",
}
# The JSON value types a field of these annotations takes; any other field
# takes exactly its annotated type (so a bool is no int).
_ACCEPTS = {float: (int, float), tuple: (list,)}


def _value_check(hint) -> tuple:
    """(expected-type phrase, accepted JSON value types) of a plain field."""
    union = typing.get_origin(hint) in (typing.Union, types.UnionType)
    kinds = typing.get_args(hint) if union else (hint,)
    accepts = tuple(t for k in kinds for t in _ACCEPTS.get(k, (k,)))
    return " or ".join(_TYPE_NAMES[k] for k in kinds), accepts


@functools.cache
def _schema(cls) -> dict:
    """Per field of dataclass ``cls``: (required, nested dataclass or None,
    whether the field is an array of them, the value check of a plain
    field or None). Resolved once per class."""
    hints = typing.get_type_hints(cls)
    schema = {}
    for f in dataclasses.fields(cls):
        hint = hints[f.name]
        many = typing.get_origin(hint) is tuple
        nested = typing.get_args(hint)[0] if many else hint
        nested = nested if dataclasses.is_dataclass(nested) else None
        required = f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        check = _value_check(hint) if nested is None else None
        schema[f.name] = (required, nested, many, check)
    return schema


def _build(ctx: _Context, cls, obj, where: str, **given):
    """Build dataclass ``cls`` from the JSON object ``obj`` at key path
    ``where``; ``given`` fields come from the caller, not the document."""
    if not isinstance(obj, dict):
        raise ctx.fail(where, f"must be an object, got {type(obj).__name__}")
    schema = _schema(cls)
    for key in obj:
        if key not in schema or key in given:
            raise ctx.fail(f"{where}.{key}" if where else key, "unknown key")
    kwargs = dict(given)
    for name, (required, nested, many, check) in schema.items():
        if name in given:
            continue
        path = f"{where}.{name}" if where else name
        if nested is not None and not many:
            # An omitted object takes the defaults of all its keys.
            kwargs[name] = _build(ctx, nested, obj.get(name, {}), path)
        elif name not in obj:
            if required:
                raise ctx.fail(path, "missing required key")
        elif nested is not None:
            items = obj[name]
            if not isinstance(items, list):
                raise ctx.fail(path, "must be an array of objects")
            kwargs[name] = tuple(_build(ctx, nested, item, path) for item in items)
        else:
            value = obj[name]
            expected, accepts = check
            if type(value) not in accepts:
                got = _TYPE_NAMES[type(value)]
                raise ctx.fail(path, f"invalid value: expected {expected}, got {got}")
            kwargs[name] = value
    try:
        return cls(**kwargs)
    except FedkitError as exc:
        raise ctx.fail(where, str(exc)) from exc
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        # A value of the wrong JSON type fails inside the dataclass's own
        # checks, which cannot tell which key held it.
        raise ctx.fail(where, f"invalid value: {exc}") from exc


def load_config(path: str) -> ConfigDocument:
    """Load and validate a config file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=path)
