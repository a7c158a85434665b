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
from __future__ import annotations

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


def _line_of(text: str, key: str, below: int) -> Optional[int]:
    # Best-effort anchor: the first line past ``below`` where the key appears quoted.
    pattern = re.compile(r'"' + re.escape(key) + r'"\s*:')
    for number, line in enumerate(text.splitlines(), start=1):
        if number > below and pattern.search(line):
            return number
    return None


class _Context:
    def __init__(self, text: str, source: str):
        self.text = text
        self.source = source

    def fail(self, key: str, why: str) -> ConfigError:
        # Anchor at the innermost key path part found, each searched below the
        # one before, so a missing key points at the object that lacks it.
        line = 0
        for part in filter(None, key.split(".")):
            line = _line_of(self.text, part, line) or line
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
