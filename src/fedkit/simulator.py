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

import dataclasses
import heapq
import math
from dataclasses import dataclass
from typing import Optional

from .checkpoint import resume_from_checkpoint, save_checkpoint
from .client import ClientConfig, ClientSession, TrainTask
from .config import FAULT_TARGET_SERVER, FaultEvent, FederationConfig, SimScenario, config_hash
from .errors import ReportError
from .metrics import ExperimentReport
from .protocol import Message, decode, encode
from .server import (
    FederationCoordinator,
    SaveCheckpoint,
    StartTimer,
    build_experiment_report,
    validation_data,
)
from .training import evaluate, initial_global, metric_for, train_local_only

DEFAULT_NO_PROGRESS_SECONDS = 1e5


@dataclass
class SimulationReport:
    """A simulation's report, plus the global model after each aggregated
    round, in order, which is kept for comparisons and never written.

    Every other attribute (``status``, ``diagnosis``, ``final_global``,
    ``reconnects``, ...) is the experiment's own.
    """

    experiment: ExperimentReport
    round_globals: list

    def __getattr__(self, name: str):
        if name == "experiment":  # not set yet, as while copying
            raise AttributeError(name)
        return getattr(self.experiment, name)


def speedup(report_a, report_b) -> float:
    """Relative total-time improvement of b over a, in percent.

    Each report is an :class:`~fedkit.metrics.ExperimentReport` or a
    :class:`SimulationReport`; both must be completed.
    """
    for report in (report_a, report_b):
        if report.status != "completed":
            raise ReportError(f"report is {report.status!r}, not completed")
    total_a = report_a.totals.total
    if total_a <= 0:
        raise ReportError(f"baseline total must be positive, got {total_a}")
    return (total_a - report_b.totals.total) / total_a * 100.0


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
        if math.isfinite(downtime):
            self.sim.loop.push(downtime, self._start_reconnect)

    def _start_reconnect(self) -> None:
        if self.reconnecting:
            return
        self.reconnecting = True
        delays = self.cfg.reconnect_backoff.delays()

        def attempt() -> None:
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
        if not self.connected:
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
            if isinstance(cmd, Message):
                self._send(cmd)
            elif isinstance(cmd, TrainTask):
                update = self.session.train(cmd.round_index, cmd.params, cmd.algorithm)
                update = dataclasses.replace(update, train_seconds=self.train_seconds)
                self.sim.loop.push(
                    self.train_seconds, lambda u=update: self._run(self.session.on_trained(u))
                )

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
            if isinstance(cmd, Message):
                frame, client = encode(cmd), self.by_site[cmd.client_id]
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
        else:  # a session sends only joins and updates
            self.feed("on_update", msg.client_id, msg.body)

    def _crash_server(self, downtime: float) -> None:
        self.coordinator = None
        self.server_back = self.loop.now + downtime
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
    A file already at the checkpoint path is never read: a restart before
    this run's first save starts over, and that save replaces the file. The
    run ends when the coordinator finishes, so its closing frames
    (``experiment_done``, ``abort``) are not delivered. A scenario that stops
    completing rounds for 100 times its slowest round (at least
    ``DEFAULT_NO_PROGRESS_SECONDS``) of virtual time is reported as a hung
    experiment with a diagnosis, not an error.
    """
    cfg = scenario.federation
    sim = _Simulation(scenario)
    sim.run()

    coord = sim.coordinator
    stalled = f"no progress after {sim.loop.now:.0f} virtual seconds: "
    if coord is None:
        status, reason = "hung", stalled + (
            "the server went down and never came back" if math.isinf(sim.server_back)
            else f"the server is down until {sim.server_back:.0f} virtual seconds")
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
    personal = None
    if cfg.algorithm.kind == "ditto":
        personal = {c.site: c.session.personal_params for c in sim.clients}
    # The baseline reuses the sessions' training draws, and it shares one
    # validation draw per site with the final scores.
    local_cross, val_data = None, None
    if scenario.local_baseline:
        val_data = list(validation_data(cfg))
        local_cross = _local_baseline(cfg, [c.session.data for c in sim.clients], val_data)
    experiment = build_experiment_report(
        cfg,
        records,
        coord.global_params if records else None,
        status=status,
        val_data=val_data,
        diagnosis=reason,
        reconnects=max(sim.connect_events - len(sim.clients), 0),
        virtual_seconds=sim.loop.now,
        local_cross=local_cross,
        personal_models=personal,
    )
    return SimulationReport(experiment=experiment, round_globals=sim.round_globals)


def _local_baseline(cfg: FederationConfig, train_data: list, val_data: list) -> dict:
    """Each site trained alone for the same round budget, scored everywhere.
    ``train_data`` and ``val_data`` hold the sites' draws in config order."""
    metric = metric_for(cfg.trainer)
    start = initial_global(cfg.trainer, cfg.heterogeneity)
    table: dict = {}
    for spec, data in zip(cfg.sites, train_data):
        local_model = train_local_only(start, data, cfg.trainer, cfg.rounds)
        table[spec.name] = {
            site.name: evaluate(local_model, val, metric) for site, val in zip(cfg.sites, val_data)
        }
    return table
