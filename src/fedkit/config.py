"""The config document: its schema, its hash, and its parser.

A config file is a single document shared by server, client, and
simulator: the fields of :class:`FederationConfig` at the top level, plus
an optional ``simulator`` block with the fields of :class:`SimScenario`
(timing model and fault schedule). The dataclasses are the schema, and
:func:`~fedkit.params.from_json` holds its rules: ``algorithm``,
``trainer`` and ``heterogeneity`` are nested objects that may be omitted,
``sites`` and ``faults`` are arrays of objects, an omitted key takes its
field's default, and every module invariant is re-checked at load time.
Any invalid key or value raises :class:`~fedkit.errors.ConfigError` naming
its key, with a line anchor into the file wherever one can be found. The
config echo in a report parses back to an equal config with the same
:func:`config_hash`, the sha256 of :func:`~fedkit.params.json_writer`'s text.
"""

import dataclasses
import hashlib
import json
import math
import re
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .aggregation import AlgorithmConfig
from .errors import ConfigError
from .params import from_json, json_writer
from .training import HeterogeneityConfig, TrainerConfig, param_dim

LOSS_POLICIES = ("wait", "continue_without")

FAULT_TARGET_SERVER = "server"
FAULT_KINDS = ("crash", "disconnect")


@dataclass(frozen=True)
class SiteSpec:
    """One site of the federation. ``fraction`` optionally overrides the
    heterogeneity config's training-data fraction for this site alone
    (the client data-quantity experiment)."""

    name: str
    expected: bool = True
    fraction: Optional[float] = None

    def __post_init__(self):
        if not self.name:
            raise ConfigError("name must be non-empty")
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ConfigError(f"fraction must lie in (0, 1], got {self.fraction} for {self.name!r}")


@dataclass(frozen=True)
class FederationConfig:
    """Full experiment description shared by server, clients, and simulator."""

    sites: tuple[SiteSpec, ...]
    rounds: int
    algorithm: AlgorithmConfig
    trainer: TrainerConfig
    heterogeneity: HeterogeneityConfig
    on_client_loss: str = "wait"
    min_clients_per_round: Optional[int] = None
    checkpoint_path: str = "checkpoint.json"
    round_timeout_seconds: Optional[float] = None

    def __post_init__(self):
        sites = tuple(self.sites)
        if not sites:
            raise ConfigError("sites must list at least one site")
        names = [s.name for s in sites]
        if len(set(names)) != len(names):
            raise ConfigError(f"sites must have unique names, got {names}")
        if not any(s.expected for s in sites):
            raise ConfigError("sites must include at least one expected site")
        object.__setattr__(self, "sites", sites)
        if not isinstance(self.rounds, int) or isinstance(self.rounds, bool) or self.rounds < 1:
            raise ConfigError(f"rounds must be a positive integer, got {self.rounds!r}")
        if self.on_client_loss not in LOSS_POLICIES:
            raise ConfigError(
                f"on_client_loss must be one of {LOSS_POLICIES}, got {self.on_client_loss!r}"
            )
        if self.min_clients_per_round is not None:
            quorum = self.min_clients_per_round
            if (
                not isinstance(quorum, int)
                or isinstance(quorum, bool)
                or not 1 <= quorum <= len(sites)
            ):
                raise ConfigError(
                    f"min_clients_per_round must be an integer in [1, {len(sites)}], "
                    f"got {quorum!r}"
                )
        elif self.on_client_loss == "continue_without":
            raise ConfigError("on_client_loss continue_without requires min_clients_per_round")
        if not self.checkpoint_path:
            raise ConfigError("checkpoint_path must be non-empty")
        if self.round_timeout_seconds is not None and self.round_timeout_seconds <= 0:
            raise ConfigError(
                f"round_timeout_seconds must be positive or null, got {self.round_timeout_seconds}"
            )
        if self.round_timeout_seconds is not None and not math.isfinite(self.round_timeout_seconds):
            # A NaN timeout never fires; an infinite one is what null means.
            raise ConfigError(f"round_timeout_seconds must be finite, got {self.round_timeout_seconds}")
        try:
            param_dim(self.trainer, self.heterogeneity)
        except ConfigError as exc:  # a check that names its field first, for the parser
            raise ConfigError(f"heterogeneity {exc}") from exc

    @property
    def site_names(self) -> list:
        return [s.name for s in self.sites]

    @property
    def expected_sites(self) -> list:
        return [s.name for s in self.sites if s.expected]

    def site_index(self, name: str) -> int:
        for i, s in enumerate(self.sites):
            if s.name == name:
                return i
        raise ConfigError(f"unknown site {name!r}")

    def site_heterogeneity(self, index: int) -> HeterogeneityConfig:
        """The heterogeneity config with site ``index``'s fraction override."""
        fraction = self.sites[index].fraction
        if fraction is None:
            return self.heterogeneity
        return dataclasses.replace(self.heterogeneity, fraction=fraction)


def config_hash(cfg: FederationConfig) -> str:
    """Identity of the experiment a checkpoint belongs to: the sha256 of the
    config's JSON text less the checkpoint path and timeout. Moving a
    checkpoint file or adjusting a timeout does not change the experiment,
    while resuming under a different algorithm or data config must fail."""
    text = json_writer(FederationConfig, ("checkpoint_path", "round_timeout_seconds"))(cfg)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class FaultEvent:
    """One injected failure: a server restart or a client outage at a round.

    Client faults fire when that round's task reaches the client; ``crash``
    loses in-progress state (the client retrains after rejoining), while
    ``disconnect`` keeps the trained update for resubmission. Downtime is
    virtual seconds; ``inf`` means the target never comes back.
    """

    at_round: int
    target: str  # "server" or a site name
    kind: str = "crash"
    downtime_seconds: float = 0.0

    def __post_init__(self):
        if self.at_round < 0:
            raise ConfigError(f"at_round must be >= 0, got {self.at_round}")
        if self.kind not in FAULT_KINDS:
            raise ConfigError(f"kind must be one of {FAULT_KINDS}, got {self.kind!r}")
        if self.target == FAULT_TARGET_SERVER and self.kind != "crash":
            raise ConfigError(f"kind must be 'crash' for a server fault, got {self.kind!r}")
        if math.isnan(self.downtime_seconds) or self.downtime_seconds < 0:
            raise ConfigError(f"downtime_seconds must be >= 0, got {self.downtime_seconds}")


@dataclass(frozen=True)
class SimScenario:
    """A federation config plus the timing model and fault schedule."""

    federation: FederationConfig
    site_multipliers: Mapping[str, float] = field(default_factory=dict)
    base_round_cost_seconds: float = 1.0
    aggregation_cost_seconds: float = 0.0
    faults: tuple[FaultEvent, ...] = ()
    local_baseline: bool = False

    def __post_init__(self):
        names = set(self.federation.site_names)
        for site, mult in self.site_multipliers.items():
            if site not in names:
                raise ConfigError(f"site_multipliers names unknown site {site!r}")
            if not mult > 0 or not math.isfinite(mult):
                raise ConfigError(f"site_multipliers must be finite and > 0, got {mult} for {site!r}")
        if not self.base_round_cost_seconds > 0:
            raise ConfigError(
                f"base_round_cost_seconds must be > 0, got {self.base_round_cost_seconds}"
            )
        if self.aggregation_cost_seconds < 0:
            raise ConfigError(
                f"aggregation_cost_seconds must be >= 0, got {self.aggregation_cost_seconds}"
            )
        for key in ("base_round_cost_seconds", "aggregation_cost_seconds"):
            # Non-finite costs would put the virtual clock at inf or NaN.
            if not math.isfinite(getattr(self, key)):
                raise ConfigError(f"{key} must be finite, got {getattr(self, key)}")
        faults = tuple(self.faults)
        for fault in faults:
            if fault.at_round >= self.federation.rounds:
                raise ConfigError(
                    f"faults must fall in rounds 0-{self.federation.rounds - 1}, "
                    f"got at_round {fault.at_round}"
                )
            if fault.target != FAULT_TARGET_SERVER and fault.target not in names:
                raise ConfigError(f"faults must target the server or a site, got {fault.target!r}")
        object.__setattr__(self, "faults", faults)
        object.__setattr__(self, "site_multipliers", dict(self.site_multipliers))
        # Finite factors can still overflow the virtual clock. A run lasts at
        # most 100 times its slowest round per round plus its finite outages;
        # that bound must be finite, and the error names its largest term.
        scale = 100.0 * self.federation.rounds
        slowest = max(self.multiplier(site) for site in names)
        train = scale * self.base_round_cost_seconds
        terms = {
            "site_multipliers" if slowest > 1 and math.isfinite(train)
            else "base_round_cost_seconds": train * slowest,
            "aggregation_cost_seconds": scale * self.aggregation_cost_seconds,
            "faults": sum(f.downtime_seconds for f in faults if math.isfinite(f.downtime_seconds)),
        }
        if not math.isfinite(sum(terms.values())):
            raise ConfigError(
                f"{max(terms, key=terms.get)} overflows the virtual clock: 100 * rounds * "
                "(base_round_cost_seconds * largest multiplier + aggregation_cost_seconds) "
                "+ fault downtimes is not finite"
            )

    def multiplier(self, site: str) -> float:
        return self.site_multipliers.get(site, 1.0)


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


def parse_config(text: str, source: str = "<config>") -> ConfigDocument:
    """Parse and validate a config document from its JSON text."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{source}:{exc.lineno}: invalid JSON: {exc.msg}") from exc

    def fail(key: str, why: str) -> ConfigError:
        line = _line_of(text, key)
        anchor = f"{source}:{line}" if line else source
        return ConfigError(f"{anchor}: {key}: {why}" if key else f"{anchor}: {why}")

    has_scenario = isinstance(doc, dict) and "simulator" in doc
    scenario_doc = doc.pop("simulator") if has_scenario else None
    federation = from_json(FederationConfig, doc, fail)
    scenario = None
    if has_scenario:
        scenario = from_json(SimScenario, scenario_doc, fail, "simulator", federation=federation)
    return ConfigDocument(federation=federation, scenario=scenario)


def load_config(path: str) -> ConfigDocument:
    """Load and validate a config file."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, source=path)
