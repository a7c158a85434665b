"""One JSON config format shared by server, client, and simulator.

A config file is a single document: the fields of
:class:`~fedkit.server.FederationConfig` at the top level, plus an optional
``simulator`` block with the fields of :class:`~fedkit.simulator.SimScenario`
(timing model and fault schedule). The dataclasses are the schema, and
:func:`~fedkit.params.from_json` holds its rules: ``algorithm``,
``trainer`` and ``heterogeneity`` are nested objects that may be omitted,
``sites`` and ``faults`` are arrays of objects, an omitted key takes its
field's default, and every module invariant is re-checked at load time.
Any invalid key or value raises :class:`~fedkit.errors.ConfigError` naming
its key, with a line anchor into the file wherever one can be found. The
config echo in a report, :func:`~fedkit.params.to_json` of the config,
parses back to an equal config with the same config hash.
"""

import json
import re
from dataclasses import dataclass
from typing import Optional

from .errors import ConfigError
from .params import from_json
from .server import FederationConfig
from .simulator import SimScenario


@dataclass(frozen=True)
class ConfigDocument:
    """A parsed config file: the federation, plus a scenario when the file
    carries simulator keys."""

    federation: FederationConfig
    scenario: Optional[SimScenario] = None


_DECODER = json.JSONDecoder()
_SPACE = re.compile(r"[ \t\n\r]*")
# A key path's parts: object keys joined by dots, array indices in brackets.
_PATH_PART = re.compile(r"([^.\[\]]+)|\[(\d+)\]")


def _member(text: str, start: int, key: str, index: Optional[int]) -> Optional[tuple]:
    """(anchor, value start) of member ``key`` (or element ``index``) of the
    JSON object (or array) at ``start``; None when it has no such member.
    The anchor is where the member's key, or the element, begins."""
    start = _SPACE.match(text, start).end()
    if text[start : start + 1] != ("{" if key else "["):
        return None
    found, pos, position = None, start + 1, 0
    while True:
        pos = _SPACE.match(text, pos).end()
        if text[pos] in "]}":
            return found
        anchor = pos
        if key:
            name, pos = json.decoder.scanstring(text, pos + 1)
            pos = _SPACE.match(text, pos).end() + 1  # past the colon
            pos = _SPACE.match(text, pos).end()
            if name == key:
                found = (anchor, pos)  # json.loads keeps a repeated key's last value
        elif position == index:
            return anchor, pos
        pos = _SPACE.match(text, _DECODER.raw_decode(text, pos)[1]).end()
        pos += text[pos] == ","
        position += 1


def _line_of(text: str, key: str) -> int:
    """The line of the deepest part of key path ``key`` that the document
    holds, 0 when it holds none: a value error points at its key's own
    line, a missing key at the object that lacks it."""
    line, start = 0, 0
    for name, index in _PATH_PART.findall(key):
        member = _member(text, start, name, int(index) if index else None)
        if member is None:
            break
        line = text.count("\n", 0, member[0]) + 1
        start = member[1]
    return line


class _Context:
    def __init__(self, text: str, source: str):
        self.text = text
        self.source = source

    def fail(self, key: str, why: str) -> ConfigError:
        line = _line_of(self.text, key)
        anchor = f"{self.source}:{line}" if line else self.source
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
    federation = from_json(FederationConfig, doc, ctx.fail)
    scenario = None
    if has_scenario:
        scenario = from_json(SimScenario, scenario_doc, ctx.fail, "simulator", federation=federation)
    return ConfigDocument(federation=federation, scenario=scenario)


def load_config(path: str) -> ConfigDocument:
    """Load and validate a config file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=path)
