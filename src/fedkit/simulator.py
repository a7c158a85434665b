"""Deterministic single-process federation under a virtual clock.

The simulator runs the same :class:`~fedkit.server.FederationCoordinator`
and :class:`~fedkit.client.ClientSession` state machines as the TCP
deployment (every message even passes through the wire codec), but
delivery and training happen on an event heap in virtual time. Network
latency is modeled as zero; only compute heterogeneity (per-site time
multipliers) and faults are modeled, because hardware, not links, is what
separates the sites' round times.

Each simulated client's training time is ``base_round_cost_seconds *
multiplier``, computed once per client; a round spans the slowest
participant plus the aggregation cost, so each client's waiting time is the
round's training span minus its own time.

The simulation object is also the server process: it holds the live
coordinator, or None while the server is down. A restarted server resumes
from the checkpoint this run saved last; an unreadable one raises
:class:`~fedkit.errors.CheckpointError`.

Determinism is a hard contract: the loop is strictly single-threaded,
ties break by insertion order, and reconnect backoff carries no jitter, so
a scenario replays bit-identically.
"""
from __future__ import annotations

import dataclasses
import heapq
import math
import os
from dataclasses import dataclass, field
from typing import Optional

from .client import ClientConfig, ClientSession, Exit, SendMsg, TrainTask
from .errors import ConfigError, ReportError
from .metrics import ExperimentReport, report_totals
from .params import ParameterVector
from .protocol import Message, decode, encode
from .server import (
    FederationConfig,
    FederationCoordinator,
    SaveCheckpoint,
    Send,
    StartTimer,
    build_experiment_report,
    config_hash,
    generate_site_data,
    resume_from_checkpoint,
    save_checkpoint,
)
from .training import evaluate, initial_global, metric_for, train_local_only

DEFAULT_NO_PROGRESS_SECONDS = 1e5

FAULT_TARGET_SERVER = "server"
FAULT_KINDS = ("crash", "disconnect")


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
            raise ConfigError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if math.isnan(self.downtime_seconds) or self.downtime_seconds < 0:
            raise ConfigError(f"downtime_seconds must be >= 0, got {self.downtime_seconds}")


@dataclass(frozen=True)
class SimScenario:
    """A federation config plus the timing model and fault schedule."""

    federation: FederationConfig
    site_multipliers: dict = field(default_factory=dict)
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
                raise ConfigError(f"multiplier for {site!r} must be finite and > 0, got {mult}")
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
                    f"fault at_round {fault.at_round} is past the last round "
                    f"{self.federation.rounds - 1}"
                )
            if fault.target != FAULT_TARGET_SERVER and fault.target not in names:
                raise ConfigError(f"fault targets unknown site {fault.target!r}")
        object.__setattr__(self, "faults", faults)
        object.__setattr__(self, "site_multipliers", dict(self.site_multipliers))

    def multiplier(self, site: str) -> float:
        return self.site_multipliers.get(site, 1.0)


@dataclass
class SimulationReport:
    """What a simulation produced, including findings about non-completion."""

    status: str  # completed | aborted | hung
    diagnosis: str
    experiment: Optional[ExperimentReport]
    round_globals: list  # global model after each aggregated round, in order
    final_global: Optional[ParameterVector]
    personal_models: Optional[dict]
    local_cross: Optional[dict]
    reconnects: int
    virtual_seconds: float


def speedup(report_a, report_b) -> float:
    """Relative total-time improvement of b over a, in percent.

    Each report is a :class:`SimulationReport` or a loaded report.json
    document; both must be completed.
    """
    total_a = _completed_total(report_a)
    total_b = _completed_total(report_b)
    if total_a <= 0:
        raise ReportError(f"baseline total must be positive, got {total_a}")
    return (total_a - total_b) / total_a * 100.0


def _completed_total(report) -> float:
    if isinstance(report, SimulationReport):
        if report.status != "completed" or report.experiment is None:
            raise ReportError(f"report is {report.status}, not completed: {report.diagnosis}")
        return report.experiment.totals.total
    if isinstance(report, dict):  # a loaded report.json document
        if report.get("status") != "completed":
            raise ReportError(f"report is {report.get('status')!r}, not completed")
        return report_totals(report).total
    raise ReportError(f"cannot read totals from {type(report).__name__}")


# --- the event loop ------------------------------------------------------------


class _EventLoop:
    def __init__(self):
        self._heap: list = []
        self._seq = 0
        self.now = 0.0

    def push(self, delay: float, fn) -> None:
        heapq.heappush(self._heap, (self.now + delay, self._seq, fn))
        self._seq += 1

    def pop(self):
        if not self._heap:
            return None
        when, _seq, fn = heapq.heappop(self._heap)
        self.now = when
        return fn


class _SimClient:
    """Client process model around the shared session state machine."""

    def __init__(self, sim: "_Simulation", site: str, index: int):
        self.sim = sim
        self.site = site
        self.cfg = ClientConfig(
            site_name=site,
            server_address=("sim", 0),
            data_seed=sim.cfg.trainer.seed,
            site_index=index,
        )
        self.session = ClientSession(self.cfg, sim.cfg.trainer, sim.cfg.site_heterogeneity(index))
        self.train_seconds = sim.scenario.base_round_cost_seconds * sim.scenario.multiplier(site)
        self.connected = False
        self.reconnecting = False
        self.down_until = 0.0
        self.exit_code: Optional[int] = None

    # -- connection management

    def on_server_down(self) -> None:
        if self.connected:
            self.connected = False
            self._start_reconnect()

    def drop_connection(self, downtime: float) -> None:
        self.down_until = self.sim.loop.now + downtime
        if self.connected:
            self.connected = False
            self.sim.loop.push(0.0, lambda: self.sim.feed("on_client_lost", self.site))

    def process_crash(self, downtime: float) -> None:
        self.drop_connection(downtime)
        self.session.reset_process_state()
        self.reconnecting = False
        if math.isfinite(downtime):
            self.sim.loop.push(downtime, self._start_reconnect)

    def _start_reconnect(self) -> None:
        if self.reconnecting or self.exit_code is not None:
            return
        self.reconnecting = True
        delays = self.cfg.reconnect_backoff.delays()

        def attempt() -> None:
            if self.connected or self.exit_code is not None:
                self.reconnecting = False
                return
            if self.sim.coordinator is not None and self.sim.loop.now >= self.down_until:
                self.reconnecting = False
                self.connected = True
                self.sim.connect_events += 1
                self._run(self.session.on_connected())
            else:
                self.sim.loop.push(next(delays), attempt)

        self.sim.loop.push(0.0, attempt)

    # -- message handling

    def receive(self, frame: bytes) -> None:
        if not self.connected or self.exit_code is not None:
            return
        msg = decode(frame)  # every delivery is exactly one frame
        # A client fault fires when its round's task reaches the client.
        fault = self.sim.take_fault(self.site, msg.round) if msg.kind == "task_assignment" else None
        if fault is not None and fault.kind == "crash":
            self.process_crash(fault.downtime_seconds)
            return
        self._run(self.session.on_message(msg))
        if fault is not None:
            # disconnect: the task landed and training proceeds offline; the
            # finished update is held for resubmission after rejoin.
            self.drop_connection(fault.downtime_seconds)

    def _run(self, cmds) -> None:
        for cmd in cmds:
            if isinstance(cmd, SendMsg):
                self._send(cmd.message)
            elif isinstance(cmd, TrainTask):
                update = self.session.train(cmd.round_index, cmd.params, cmd.algorithm)
                update = dataclasses.replace(update, train_seconds=self.train_seconds)
                self.sim.loop.push(
                    self.train_seconds, lambda u=update: self._run(self.session.on_trained(u))
                )
            elif isinstance(cmd, Exit):
                self.exit_code = cmd.code
                self.connected = False

    def _send(self, message: Message) -> None:
        if self.connected and self.sim.coordinator is not None:
            frame = encode(message)
            self.sim.loop.push(0.0, lambda: self.sim.deliver(frame))
        else:
            # The send failed; a real client notices the break here and
            # re-enters its reconnect loop.
            self.connected = False
            self._start_reconnect()


class _Simulation:
    """The event loop, the server process model and the client models."""

    def __init__(self, scenario: SimScenario):
        self.scenario = scenario
        self.cfg = scenario.federation
        self.loop = _EventLoop()
        # A run that completes no round for this long is hung.
        slowest = max(scenario.multiplier(s) for s in self.cfg.site_names)
        round_scale = scenario.base_round_cost_seconds * slowest + scenario.aggregation_cost_seconds
        self.no_progress_seconds = max(DEFAULT_NO_PROGRESS_SECONDS, 100.0 * round_scale)
        self.cfg_hash = config_hash(self.cfg)
        self.round_globals: list = []  # one per aggregated round, in order
        self.connect_events = 0
        self.last_progress = 0.0
        self.pending_faults: dict = {}  # (target, round) -> faults in schedule order
        for fault in scenario.faults:
            self.pending_faults.setdefault((fault.target, fault.at_round), []).append(fault)
        self.coordinator: Optional[FederationCoordinator] = FederationCoordinator(
            self.cfg, aggregation_cost=scenario.aggregation_cost_seconds
        )
        self.clients = [
            _SimClient(self, spec.name, index) for index, spec in enumerate(self.cfg.sites)
        ]
        self.by_site = {c.site: c for c in self.clients}

    # -- the server

    def feed(self, event: str, *args) -> None:
        """Run one coordinator event and execute the commands it returns.

        The sends that follow an aggregation leave once it is done, so they
        are delayed by the aggregation cost; timers are not."""
        if self.coordinator is None:
            return
        delay = 0.0
        for cmd in getattr(self.coordinator, event)(*args, self.loop.now):
            if isinstance(cmd, Send):
                frame, client = encode(cmd.message), self.by_site[cmd.site]
                self.loop.push(delay, lambda c=client, f=frame: c.receive(f))
            elif isinstance(cmd, SaveCheckpoint):
                save_checkpoint(
                    self.cfg.checkpoint_path,
                    cmd.round_index,
                    cmd.params,
                    self.cfg_hash,
                )
                self.round_globals.append(cmd.params)
                self.last_progress = self.loop.now
                delay = self.scenario.aggregation_cost_seconds
            elif isinstance(cmd, StartTimer):
                self.loop.push(cmd.seconds, lambda r=cmd.round_index: self.feed("on_timeout", r))
        if self.coordinator.state is not None:
            fault = self.take_fault(FAULT_TARGET_SERVER, self.coordinator.current_round)
            if fault is not None:
                self._crash_server(fault.downtime_seconds)

    def deliver(self, frame: bytes) -> None:
        if self.coordinator is None:
            return
        msg = decode(frame)
        if msg.kind == "join_request":
            self.feed("on_join", msg.client_id)
        elif msg.kind == "update_submission":
            self.feed("on_update", msg.client_id, msg.body)
        # heartbeats and anything else carry no event

    def _crash_server(self, downtime: float) -> None:
        self.coordinator = None
        for client in self.clients:
            self.loop.push(0.0, client.on_server_down)
        if math.isfinite(downtime):
            self.loop.push(downtime, self._restart_server)

    def _restart_server(self) -> None:
        # A run that has saved no checkpoint starts over; once it has, an
        # unreadable checkpoint must raise, not silently retrain from round 0.
        start_global, start_round = None, 0
        if self.round_globals:
            start_global, start_round = resume_from_checkpoint(
                self.cfg.checkpoint_path, self.cfg_hash
            )
        self.coordinator = FederationCoordinator(
            self.cfg,
            start_round=start_round,
            start_global=start_global,
            aggregation_cost=self.scenario.aggregation_cost_seconds,
        )

    # -- faults

    def take_fault(self, target: str, round_index: int) -> Optional[FaultEvent]:
        faults = self.pending_faults.get((target, round_index))
        return faults.pop(0) if faults else None

    def run(self) -> None:
        for client in self.clients:
            client._start_reconnect()
        # A down server (no coordinator) has not finished the run.
        while self.coordinator is None or self.coordinator.status is None:
            fn = self.loop.pop()
            if fn is None:
                break
            if self.loop.now - self.last_progress > self.no_progress_seconds:
                break
            fn()


def simulate(scenario: SimScenario) -> SimulationReport:
    """Run a scenario to completion (or to a diagnosed hang) in virtual time.

    Deterministic for a fixed scenario: two calls produce identical reports.
    Any pre-existing checkpoint file is removed first so a stale checkpoint
    from an earlier run cannot leak into this one. A scenario that stops
    completing rounds for 100 times its slowest round (at least
    ``DEFAULT_NO_PROGRESS_SECONDS``) of virtual time is reported as a hung
    experiment with a diagnosis, not an error.
    """
    cfg = scenario.federation
    try:
        os.remove(cfg.checkpoint_path)
    except FileNotFoundError:
        pass
    sim = _Simulation(scenario)
    sim.run()

    coord = sim.coordinator
    stalled = f"no progress after {sim.loop.now:.0f} virtual seconds: "
    if coord is None:
        status, reason = "hung", stalled + "the server went down and never came back"
    elif coord.status is not None:
        status, reason = coord.status, coord.abort_reason
    elif coord.state is not None:
        status, reason = "hung", stalled + (
            f"round {coord.current_round} still waiting on {sorted(coord.state.pending)} "
            f"under policy {cfg.on_client_loss!r}"
        )
    else:
        status, reason = "hung", stalled + (
            f"round {coord.current_round} never opened (expected sites still absent)"
        )

    records = coord.records if coord is not None else []
    final_global = coord.global_params if (coord is not None and sim.round_globals) else None
    experiment = None
    if records and final_global is not None:
        experiment = build_experiment_report(
            cfg, records, final_global, validate_seconds=0.0, status=status
        )

    personal = None
    if cfg.algorithm.kind == "ditto":
        personal = {c.site: c.session.personal_params for c in sim.clients}

    local_cross = _local_baseline(cfg) if scenario.local_baseline else None

    return SimulationReport(
        status=status,
        diagnosis=reason,
        experiment=experiment,
        round_globals=sim.round_globals,
        final_global=final_global,
        personal_models=personal,
        local_cross=local_cross,
        reconnects=max(sim.connect_events - len(sim.clients), 0),
        virtual_seconds=sim.loop.now,
    )


def _local_baseline(cfg: FederationConfig) -> dict:
    """Each site trained alone for the same round budget, scored everywhere."""
    metric = metric_for(cfg.trainer)
    start = initial_global(cfg.trainer, cfg.heterogeneity)
    val_data = [
        generate_site_data(
            cfg.site_heterogeneity(i), i, cfg.trainer.seed, task=cfg.trainer.trainer, role="val"
        )
        for i in range(len(cfg.sites))
    ]
    table: dict = {}
    for t_index, spec in enumerate(cfg.sites):
        train_data = generate_site_data(
            cfg.site_heterogeneity(t_index),
            t_index,
            cfg.trainer.seed,
            task=cfg.trainer.trainer,
            role="train",
        )
        local_model = train_local_only(start, train_data, cfg.trainer, cfg.rounds)
        table[spec.name] = {
            cfg.sites[v_index].name: evaluate(local_model, val_data[v_index], metric)
            for v_index in range(len(cfg.sites))
        }
    return table
