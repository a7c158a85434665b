"""Federation aggregator: the round state machine, report assembly, and
the TCP runtime.

The :class:`FederationCoordinator` is transport-agnostic. Runtimes feed it
events (join, update, client loss, timeout) and execute the command list it
returns; all round-state mutation happens inside the coordinator, one event
at a time. The TCP runtime here drives it from one selector loop on one
thread, which accepts, reads and decodes connections itself, so no event
crosses a thread and the coordinator never waits on a socket read. The
simulator drives the very same coordinator from a virtual clock, which is
what keeps simulated and deployed round semantics identical. The config
schema lives in :mod:`fedkit.config`, the checkpoint file in
:mod:`fedkit.checkpoint`.

Rounds are synchronous: round r+1's task is broadcast only after round r's
aggregation completes, and a round aggregates only updates whose round index
matches; stale submissions are discarded, never averaged in.
"""

import logging
import selectors
import socket
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .aggregation import federated_average
from .checkpoint import resume_from_checkpoint, save_checkpoint
from .config import FederationConfig, config_hash
from .errors import CheckpointError, ConfigError, ExperimentAborted, ProtocolError, StartupError
from .metrics import ClientRoundStat, ExperimentReport, RoundRecord, summarize
from .params import ModelUpdate, ParameterVector
from .protocol import (
    MAX_FRAME_BYTES,
    Abort,
    FrameDecoder,
    JoinAck,
    Message,
    TaskAssignment,
    encode,
    max_update_payload,
)
from .training import evaluate, generate_site_data, initial_global, metric_for, param_dim

logger = logging.getLogger(__name__)

# --- round state -------------------------------------------------------------


@dataclass
class RoundState:
    """Mutable state of the round being collected."""

    round: int
    received: dict = field(default_factory=dict)  # site -> ModelUpdate
    pending: set = field(default_factory=set)
    arrivals: dict = field(default_factory=dict)
    dropped: set = field(default_factory=set)


# --- coordinator commands (a Message is sent to its client_id) ---------------


@dataclass(frozen=True)
class SaveCheckpoint:
    round_index: int
    params: ParameterVector


@dataclass(frozen=True)
class StartTimer:
    round_index: int
    seconds: float


class FederationCoordinator:
    """The round state machine, shared by the TCP runtime and the simulator.

    Feed events, execute the returned commands. The coordinator alone applies
    the loss policy and ends the run: runtimes read ``status`` (None until
    completed or aborted) and ``abort_reason``. ``aggregation_cost`` fixes
    the reported aggregation time (virtual-time runtimes); when None the
    coordinator measures its own aggregation wall time.
    """

    def __init__(
        self,
        cfg: FederationConfig,
        *,
        start_round: int = 0,
        start_global: Optional[ParameterVector] = None,
        aggregation_cost: Optional[float] = None,
    ):
        if start_round >= cfg.rounds:
            raise ConfigError(
                f"start round {start_round} is past the last round {cfg.rounds - 1}"
            )
        self.cfg = cfg
        self._site_order = cfg.site_names
        self._known = set(self._site_order)
        self._expected = set(cfg.expected_sites)
        self._round = start_round
        self._global = start_global if start_global is not None else initial_global(
            cfg.trainer, cfg.heterogeneity
        )
        self._agg_cost = aggregation_cost
        self._connected: set = set()
        self._state: Optional[RoundState] = None  # set while a round collects
        self.records: list = []
        self.status: Optional[str] = None
        self.abort_reason = ""
        self.stale_updates = 0

    # -- observers

    @property
    def current_round(self) -> int:
        return self._round

    @property
    def global_params(self) -> ParameterVector:
        return self._global

    @property
    def state(self) -> Optional[RoundState]:
        return self._state

    # -- events

    def on_join(self, site: str, now: float) -> list:
        if site not in self._known:
            return [self._ack(site, accepted=False, reason=f"unknown site {site!r}")]
        self._connected.add(site)
        cmds = [self._ack(site, accepted=True)]
        if self.status is not None:
            cmds.append(self._closing_message(site))
        elif self._state is None:
            if self._expected <= self._connected:
                cmds += self._open_round(now)
        elif site in self._state.pending:
            # A rejoiner that still owes this round gets the current task again.
            cmds.append(self._task_send(site))
        return cmds

    def on_update(self, site: str, update: ModelUpdate, now: float) -> list:
        if update.params.dim != self._global.dim:  # checked before any state changes
            raise ProtocolError(f"update from {site!r} has dim {update.params.dim}, "
                                f"not the global's {self._global.dim}")
        st = self._state
        if st is None or update.round != st.round:
            self.stale_updates += 1
            logger.debug("discarding stale update from %s for round %s", site, update.round)
            return []
        if site not in st.pending:
            self.stale_updates += 1  # duplicate resubmission or dropped-for-round
            return []
        st.pending.discard(site)
        st.received[site] = update
        st.arrivals[site] = now
        if not st.pending:
            return self._complete_round(now)
        return []

    def on_client_lost(self, site: str, now: float) -> list:
        self._connected.discard(site)
        st = self._state
        if st is not None and site in st.pending:
            return self._drop([site], now, f"lost {site!r} below quorum in round {st.round}")
        return []

    def on_timeout(self, round_index: int, now: float) -> list:
        st = self._state
        if st is None or st.round != round_index or not st.pending:
            return []
        if self.cfg.on_client_loss == "wait":
            return self._abort(f"round {round_index} timed out waiting for {sorted(st.pending)}")
        return self._drop(sorted(st.pending), now, f"round {round_index} timed out below quorum")

    # -- internals

    def _ack(self, site: str, accepted: bool, reason: str = "") -> Message:
        return Message(
            "join_ack",
            self._round,
            site,
            JoinAck(
                accepted=accepted,
                current_round=self._round,
                algorithm=self.cfg.algorithm,
                reason=reason,
            ),
        )

    def _closing_message(self, site: str) -> Message:
        if self.status == "completed":
            return Message("experiment_done", self._round, site)
        return Message("abort", self._round, site, Abort(self.abort_reason))

    def _task_send(self, site: str) -> Message:
        return Message(
            "task_assignment",
            self._round,
            site,
            TaskAssignment(params=self._global),
        )

    def _open_round(self, now: float) -> list:
        participants = self._expected | self._connected
        quorum = self.cfg.min_clients_per_round
        if quorum is not None and len(participants) < quorum:
            return self._abort(
                f"round {self._round} cannot meet the quorum of {quorum} "
                f"with {len(participants)} participants"
            )
        self._state = RoundState(round=self._round, pending=set(participants))
        cmds = [
            self._task_send(site)
            for site in self._site_order
            if site in participants and site in self._connected
        ]
        if self.cfg.round_timeout_seconds is not None:
            cmds.append(StartTimer(self._round, self.cfg.round_timeout_seconds))
        # Participants that are currently disconnected are already lost:
        # apply the loss policy right away instead of waiting to notice.
        for site in self._site_order:
            if site in participants and site not in self._connected:
                cmds += self._drop(
                    [site], now, f"lost {site!r} below quorum in round {self._round}"
                )
                if self._state is None:
                    break
        return cmds

    def _drop(self, sites: list, now: float, reason: str) -> list:
        """The loss policy for ``sites``, pending in the open round. Under
        wait the round keeps waiting for them. Under continue_without they
        are dropped for the round, which aborts with ``reason`` once the
        quorum is out of reach and completes once nobody is pending."""
        if self.cfg.on_client_loss == "wait":
            return []
        st = self._state
        for site in sites:
            logger.info("dropping %s for round %d", site, st.round)
            st.pending.discard(site)
            st.dropped.add(site)
        if len(st.received) + len(st.pending) < self.cfg.min_clients_per_round:
            return self._abort(reason)
        if not st.pending:
            return self._complete_round(now)
        return []

    def _complete_round(self, now: float) -> list:
        st = self._state
        # Canonical site order, not arrival order: summation order must not
        # depend on timing, or reconnect schedules would perturb the model.
        ordered = [st.received[s] for s in self._site_order if s in st.received]
        t0 = time.perf_counter()
        aggregated = federated_average(ordered, self.cfg.algorithm.weighting)
        if self._agg_cost is not None:
            agg_seconds = self._agg_cost
        else:
            agg_seconds = max(time.perf_counter() - t0, 0.0)
        last_arrival = max(st.arrivals.values())
        per_client = {}
        for site in self._site_order:
            if site in st.received:
                per_client[site] = ClientRoundStat(
                    train_seconds=st.received[site].train_seconds,
                    waiting_seconds=last_arrival - st.arrivals[site],
                    submitted=True,
                )
            elif site in st.dropped:
                per_client[site] = ClientRoundStat(
                    train_seconds=0.0, waiting_seconds=0.0, submitted=False
                )
        self.records.append(
            RoundRecord(round=st.round, per_client=per_client, aggregation_seconds=agg_seconds)
        )
        self._global = aggregated
        cmds: list = [SaveCheckpoint(st.round, aggregated)]
        self._round = st.round + 1
        self._state = None
        if self._round < self.cfg.rounds:
            return cmds + self._open_round(now)
        self.status = "completed"
        return cmds + self._close_all()

    def _abort(self, reason: str) -> list:
        logger.warning("aborting experiment: %s", reason)
        self.status = "aborted"
        self.abort_reason = reason
        self._state = None
        return self._close_all()

    def _close_all(self) -> list:
        return [self._closing_message(s) for s in self._site_order if s in self._connected]


# --- final evaluation and report assembly -------------------------------------


def validation_data(cfg: FederationConfig) -> Iterator:
    """Every site's validation draw, in config order, each built as it is
    taken, so that scoring holds one site's draw at a time.

    Site data is synthetic and fully determined by the shared config, so the
    server can regenerate each site's validation draw itself; nothing
    private crosses the wire for evaluation.
    """
    for index in range(len(cfg.sites)):
        yield generate_site_data(
            cfg.site_heterogeneity(index),
            index,
            cfg.trainer.seed,
            task=cfg.trainer.trainer,
            role="val",
        )


def evaluate_sites(
    cfg: FederationConfig, params: ParameterVector, val_data: Optional[list] = None
) -> dict:
    """Score a model on every site's validation data: ``val_data`` when
    given, else a fresh :func:`validation_data`."""
    metric = metric_for(cfg.trainer)
    if val_data is None:
        val_data = validation_data(cfg)
    return {spec.name: evaluate(params, data, metric) for spec, data in zip(cfg.sites, val_data)}


def build_experiment_report(
    cfg: FederationConfig,
    records: list,
    final_global: Optional[ParameterVector],
    *,
    validate_seconds: float = 0.0,
    status: str = "completed",
    final_scores: Optional[dict] = None,
    val_data: Optional[list] = None,
    **findings,
) -> ExperimentReport:
    """The run's report. Without a final model (no round aggregated) no
    site is scored; ``val_data`` is passed to :func:`evaluate_sites`, and
    ``findings`` set the simulator's fields."""
    if final_scores is None:
        final_scores = {} if final_global is None else evaluate_sites(cfg, final_global, val_data)
    return summarize(
        records,
        final_scores,
        final_global=final_global,
        config=cfg,
        validate_seconds=validate_seconds,
        status=status,
        **findings,
    )


# --- TCP runtime ---------------------------------------------------------------

POLL_SECONDS = 0.2  # longest the loop sleeps before it looks at stop() again
STARTUP_TIMEOUT_SECONDS = 30.0  # how long run() waits for the first join
SEND_TIMEOUT_SECONDS = 0.5  # bounds a send to a peer that stopped reading
# The largest payload a connection may announce before it has joined; a
# join_request frame is about 70 B, so anything past this is not a client.
PREJOIN_FRAME_BYTES = 4096


class _Connection:
    """One client socket and the decoder of its byte stream."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.decoder = FrameDecoder(PREJOIN_FRAME_BYTES)
        self.site: Optional[str] = None


def _hang_up(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


class FederationServer:
    """TCP server around a :class:`FederationCoordinator`, on one thread.

    The thread that calls :meth:`run` does everything: one selector loop
    accepts connections, reads them, decodes frames into coordinator events
    and executes the returned commands. A connection costs a socket and a
    frame decoder, no thread. A connection's decoder refuses a length
    prefix past its cap before buffering any of the payload: until the join
    the cap is ``PREJOIN_FRAME_BYTES``, after it the largest update frame
    the config's dimension, site names and round count allow. ``stop()``
    abandons the run from any thread (for restart tests and operator
    interrupts) and takes effect within one poll. A later server built
    with ``resume=True`` reads the checkpoint before it binds the port, so
    a CheckpointError, also for a checkpoint of the last round, leaves the
    port free.
    """

    def __init__(
        self,
        cfg: FederationConfig,
        listen=("127.0.0.1", 0),
        *,
        resume: bool = False,
    ):
        self.cfg = cfg
        self._cfg_hash = config_hash(cfg)
        dim = param_dim(cfg.trainer, cfg.heterogeneity)
        # After a join the only frame a peer may send is an update.
        self._update_cap = min(max_update_payload(dim, cfg.site_names, cfg.rounds), MAX_FRAME_BYTES)
        start_round, start_global = 0, None
        if resume:
            start_global, start_round = resume_from_checkpoint(
                cfg.checkpoint_path, self._cfg_hash
            )
            if start_global.dim != dim:
                raise CheckpointError(
                    f"checkpoint {cfg.checkpoint_path} holds a dim-{start_global.dim} "
                    f"global; the config's model has dim {dim}"
                )
            if start_round >= cfg.rounds:
                raise CheckpointError(
                    f"checkpoint {cfg.checkpoint_path} holds the last round {start_round - 1}; "
                    "nothing is left to resume"
                )
            logger.info("resuming from checkpoint at round %d", start_round)
        self._coordinator = FederationCoordinator(
            cfg, start_round=start_round, start_global=start_global
        )
        self._stopped = False
        self._connections: dict = {}  # site -> the _Connection that owns it
        family = socket.AF_INET6 if ":" in listen[0] else socket.AF_INET  # an IPv6 address
        self._listener = socket.create_server(listen, family=family)
        self._listener.setblocking(False)
        self.address = self._listener.getsockname()[:2]
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._timer: Optional[tuple] = None  # (round_index, monotonic deadline)
        self._any_join = False

    # -- lifecycle

    def run(self) -> Optional[ExperimentReport]:
        """Run the experiment to completion; returns its report.

        Returns None when stopped externally; raises StartupError when no
        client ever joins and ExperimentAborted when the loss policy gives
        up on quorum.
        """
        try:
            if not self._serve():
                return None
        finally:
            self._shutdown()
        coordinator = self._coordinator
        if coordinator.status == "aborted":
            raise ExperimentAborted(coordinator.abort_reason)
        t0 = time.perf_counter()
        final_scores = evaluate_sites(self.cfg, coordinator.global_params)
        validate_seconds = time.perf_counter() - t0
        return build_experiment_report(
            self.cfg,
            coordinator.records,
            coordinator.global_params,
            validate_seconds=validate_seconds,
            final_scores=final_scores,
        )

    def stop(self) -> None:
        self._stopped = True

    # -- the loop

    def _serve(self) -> bool:
        """Run the loop until the coordinator finishes (True) or stop() (False)."""
        started = time.monotonic()
        while self._coordinator.status is None:
            if self._stopped:
                return False
            timeout = POLL_SECONDS
            if self._timer is not None:
                timeout = min(timeout, max(self._timer[1] - time.monotonic(), 0.0))
            ready = self._selector.select(timeout)
            now = time.monotonic()
            if self._timer is not None and now >= self._timer[1]:
                round_index, self._timer = self._timer[0], None
                self._execute(self._coordinator.on_timeout(round_index, now))
            for key, _mask in ready:
                if self._coordinator.status is not None:
                    break
                if key.data is None:
                    self._accept()
                else:
                    self._read(key.data)
            if not self._any_join and now - started > STARTUP_TIMEOUT_SECONDS:
                raise StartupError(f"no client joined within {STARTUP_TIMEOUT_SECONDS:.0f} s")
        return True

    def _accept(self) -> None:
        try:
            sock, _addr = self._listener.accept()
        except OSError:
            return
        sock.settimeout(SEND_TIMEOUT_SECONDS)
        self._selector.register(sock, selectors.EVENT_READ, _Connection(sock))

    def _read(self, conn: _Connection) -> None:
        """Feed one read into the connection's decoder; on end of stream or a
        protocol violation drop it, reporting the loss of a joined site."""
        try:
            chunk = conn.sock.recv(65536)
            if not chunk:
                raise ConnectionError("end of stream")
            for msg in conn.decoder.feed(chunk):
                self._dispatch(conn, msg)
                if self._coordinator.status is not None:
                    return
        except (OSError, ProtocolError) as exc:
            logger.debug("connection error for %s: %s", conn.site, exc)
            self._selector.unregister(conn.sock)
            _hang_up(conn.sock)
            conn.sock.close()
            site = conn.site
            if site is not None and self._connections.get(site) is conn:
                # Only the connection that owns the site reports its loss; an
                # older one replaced by a rejoin goes quietly.
                del self._connections[site]
                self._execute(self._coordinator.on_client_lost(site, time.monotonic()))

    def _dispatch(self, conn: _Connection, msg: Message) -> None:
        now = time.monotonic()
        if conn.site is None and msg.kind == "join_request":
            self._any_join = True
            conn.site = msg.client_id
            conn.decoder.cap = self._update_cap
            self._connections[conn.site] = conn
            cmds = self._coordinator.on_join(conn.site, now)
        elif msg.kind == "update_submission" and msg.client_id == conn.site:
            cmds = self._coordinator.on_update(conn.site, msg.body, now)
        else:
            raise ProtocolError(
                f"unexpected {msg.kind} claiming {msg.client_id!r} "
                f"on the connection of site {conn.site!r}"
            )
        self._execute(cmds)

    def _execute(self, cmds: list) -> None:
        for cmd in cmds:
            if isinstance(cmd, Message):
                self._send(cmd)
            elif isinstance(cmd, SaveCheckpoint):
                save_checkpoint(
                    self.cfg.checkpoint_path,
                    cmd.round_index,
                    cmd.params,
                    self._cfg_hash,
                )
            elif isinstance(cmd, StartTimer):
                self._timer = (cmd.round_index, time.monotonic() + cmd.seconds)

    def _send(self, msg: Message) -> None:
        conn = self._connections.get(msg.client_id)
        if conn is None:
            return
        try:
            conn.sock.sendall(encode(msg))
        except OSError:
            # The socket then reads as ended, and _read reports the loss, so
            # its cascade (drop, round completion, abort) has one path.
            _hang_up(conn.sock)

    def _shutdown(self) -> None:
        for key in list(self._selector.get_map().values()):
            _hang_up(key.fileobj)
            key.fileobj.close()
        self._selector.close()
        self._connections.clear()
