"""Site-side runtime: join, fetch task, train locally, submit, survive outages.

The protocol logic lives in :class:`ClientSession`, a transport-agnostic
state machine the TCP runtime and the simulator both drive. A client is a
single logical thread: network waits and training alternate, so a task that
arrives after a reconnection simply supersedes whatever older work was
still held.

Reconnection uses capped exponential backoff and never gives up: a client
keeps retrying until the connection succeeds, however long the server is
away. Backoff delays carry no jitter; reconnect schedules must replay
identically under the simulator's virtual clock.
"""
from __future__ import annotations

import dataclasses
import logging
import socket
import time
from dataclasses import dataclass
from typing import Iterator, Optional

from .aggregation import AlgorithmConfig
from .errors import ConfigError, ProtocolError
from .params import ModelUpdate, ParameterVector
from .protocol import FrameDecoder, Message, encode
from .training import (
    ClientDataset,
    HeterogeneityConfig,
    TrainerConfig,
    ditto_personal_round,
    generate_site_data,
    local_train,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential reconnect delays: initial, x multiplier, up to max."""

    initial_seconds: float = 0.5
    max_seconds: float = 30.0
    multiplier: float = 2.0

    def __post_init__(self):
        if not 0 < self.initial_seconds <= self.max_seconds:
            raise ConfigError(
                f"backoff requires 0 < initial <= max, got {self.initial_seconds}/{self.max_seconds}"
            )
        if self.multiplier < 1.0:
            raise ConfigError(f"backoff multiplier must be >= 1, got {self.multiplier}")

    def delays(self) -> Iterator[float]:
        """Infinite delay sequence; retrying never stops."""
        delay = self.initial_seconds
        while True:
            yield delay
            delay = min(delay * self.multiplier, self.max_seconds)


@dataclass(frozen=True)
class ClientConfig:
    """One site's runtime identity and connection behavior."""

    site_name: str
    server_address: tuple
    data_seed: int = 0
    site_index: int = 0
    reconnect_backoff: BackoffPolicy = BackoffPolicy()

    def __post_init__(self):
        if not self.site_name:
            raise ConfigError("site_name must be non-empty")
        host, port = self.server_address
        if not isinstance(host, str) or not 0 <= int(port) <= 65535:
            raise ConfigError(f"invalid server address {self.server_address!r}")
        object.__setattr__(self, "server_address", (host, int(port)))
        if self.site_index < 0:
            raise ConfigError(f"site_index must be >= 0, got {self.site_index}")


def parse_address(text: str) -> tuple:
    """Parse 'host:port' (split on the last colon)."""
    host, sep, port = text.rpartition(":")
    if not sep or not host or not port.isdigit():
        raise ConfigError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


# --- session commands (executed by the runtime) --------------------------------


@dataclass(frozen=True)
class SendMsg:
    message: Message


@dataclass(frozen=True)
class TrainTask:
    round_index: int
    params: ParameterVector
    algorithm: AlgorithmConfig


@dataclass(frozen=True)
class Exit:
    code: int
    reason: str = ""


class ClientSession:
    """Protocol state machine for one site.

    Holds the last completed-but-possibly-undelivered update: after a
    reconnect it is resubmitted if the server is still on the same round
    (the join ack carries the current round), otherwise discarded in favor
    of the new task. The server deduplicates, so an update that was in fact
    delivered is aggregated once.

    For the personalization algorithm the session also keeps the per-client
    personal model; it never leaves the site and survives reconnects (but
    not process crashes; it is in-memory state). A task re-sent for the
    round already stepped restarts that round's personal step from the same
    start, so reconnects and server restarts leave it unchanged.
    """

    def __init__(self, cfg: ClientConfig, trainer: TrainerConfig, heterogeneity: HeterogeneityConfig):
        self.cfg = cfg
        self.trainer = trainer
        self.heterogeneity = heterogeneity
        self.personal_params: Optional[ParameterVector] = None
        # The round whose personal step was last taken, and its start model.
        self._personal_round: Optional[int] = None
        self._personal_start: Optional[ParameterVector] = None
        self._data: Optional[ClientDataset] = None
        self._held: Optional[ModelUpdate] = None

    @property
    def data(self) -> ClientDataset:
        if self._data is None:
            self._data = generate_site_data(
                self.heterogeneity,
                self.cfg.site_index,
                self.cfg.data_seed,
                task=self.trainer.trainer,
                role="train",
            )
        return self._data

    def on_connected(self) -> list:
        return [SendMsg(Message("join_request", 0, self.cfg.site_name))]

    def on_message(self, msg: Message) -> list:
        """The commands ``msg`` calls for. A refused join raises ConfigError:
        the site is not part of this experiment."""
        if msg.kind == "join_ack":
            if not msg.body.accepted:
                raise ConfigError(msg.body.reason or "join rejected")
            if self._held is not None:
                if self._held.round == msg.body.current_round:
                    logger.info(
                        "%s resubmitting round %d after reconnect",
                        self.cfg.site_name,
                        self._held.round,
                    )
                    return [SendMsg(self._update_message(self._held))]
                self._held = None  # the federation moved on; discard
            return []
        if msg.kind == "task_assignment":
            self._held = None  # any older unsent work is superseded
            return [TrainTask(msg.round, msg.body.params, msg.body.algorithm)]
        if msg.kind == "experiment_done":
            return [Exit(0)]
        if msg.kind == "abort":
            return [Exit(1, msg.body.reason)]
        return []  # heartbeats, and client-only kinds from a confused server

    def train(self, round_index: int, params: ParameterVector, algorithm: AlgorithmConfig) -> ModelUpdate:
        """The local work of one round: the transmitted track, plus the
        personal track when the algorithm personalizes."""
        update = local_train(
            params,
            self.data,
            self.trainer,
            algorithm,
            w_global=params,
            client_id=self.cfg.site_name,
            round_index=round_index,
        )
        if algorithm.kind == "ditto":
            if round_index != self._personal_round:
                # A task for the round already stepped is a re-sent one (after
                # a reconnect or a server restart): step again from its start.
                self._personal_round = round_index
                self._personal_start = params if self.personal_params is None else self.personal_params
            self.personal_params = ditto_personal_round(
                self._personal_start, self.data, self.trainer, params, algorithm.ditto_lambda
            )
        return update

    def on_trained(self, update: ModelUpdate) -> list:
        self._held = update
        return [SendMsg(self._update_message(update))]

    def reset_process_state(self) -> None:
        """Crash semantics: in-memory state (held update, personal model) is lost."""
        self._held = None
        self.personal_params = None
        self._personal_round = None
        self._personal_start = None

    def _update_message(self, update: ModelUpdate) -> Message:
        return Message("update_submission", update.round, update.client_id, update)


# --- TCP runtime ----------------------------------------------------------------


class ClientRuntime:
    """Blocking TCP loop around a :class:`ClientSession`."""

    def __init__(self, cfg: ClientConfig, trainer: TrainerConfig, heterogeneity: HeterogeneityConfig):
        self.cfg = cfg
        self.session = ClientSession(cfg, trainer, heterogeneity)

    def run(self) -> int:
        """Connect (retrying forever), serve tasks, exit on done/abort.

        Returns the exit code: 0 for a completed experiment, 1 for a
        server-side abort. Raises ConfigError when the join is rejected.
        """
        while True:
            sock = self._connect_forever()
            code = self._serve(sock)
            if code is not None:
                return code
            logger.info("%s lost the server; reconnecting", self.cfg.site_name)

    def _connect_forever(self) -> socket.socket:
        delays = self.cfg.reconnect_backoff.delays()
        while True:
            try:
                return socket.create_connection(self.cfg.server_address, timeout=5.0)
            except OSError:
                time.sleep(next(delays))

    def _serve(self, sock: socket.socket) -> Optional[int]:
        decoder = FrameDecoder()
        try:
            with sock:
                sock.settimeout(0.5)
                for cmd in self.session.on_connected():
                    code = self._execute(cmd, sock)
                    if code is not None:
                        return code
                while True:
                    try:
                        chunk = sock.recv(65536)
                    except socket.timeout:
                        continue
                    if not chunk:
                        return None  # server closed; reconnect
                    for msg in decoder.feed(chunk):
                        for cmd in self.session.on_message(msg):
                            code = self._execute(cmd, sock)
                            if code is not None:
                                return code
        except (OSError, ProtocolError) as exc:
            logger.debug("%s connection dropped: %s", self.cfg.site_name, exc)
            return None

    def _execute(self, cmd, sock: socket.socket) -> Optional[int]:
        if isinstance(cmd, SendMsg):
            sock.sendall(encode(cmd.message))
            return None
        if isinstance(cmd, TrainTask):
            t0 = time.perf_counter()
            update = self.session.train(cmd.round_index, cmd.params, cmd.algorithm)
            update = dataclasses.replace(update, train_seconds=time.perf_counter() - t0)
            for follow_up in self.session.on_trained(update):
                code = self._execute(follow_up, sock)
                if code is not None:
                    return code
            return None
        if isinstance(cmd, Exit):
            if cmd.code == 0:
                logger.info("%s: experiment done", self.cfg.site_name)
            else:
                logger.warning("%s: experiment aborted: %s", self.cfg.site_name, cmd.reason)
            return cmd.code
        return None


def run_client(cfg: ClientConfig, trainer: TrainerConfig, heterogeneity: HeterogeneityConfig) -> int:
    """Run a site against a (possibly not yet started) server; see ClientRuntime."""
    return ClientRuntime(cfg, trainer, heterogeneity).run()
