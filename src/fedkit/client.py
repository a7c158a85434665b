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
    HeterogeneityConfig,
    TrainerConfig,
    ditto_personal_round,
    generate_site_data,
    local_train,
)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class BackoffPolicy:
    """Capped exponential reconnect delays: initial, doubling, up to max."""

    initial_seconds: float = 0.5
    max_seconds: float = 30.0

    def __post_init__(self):
        if not 0 < self.initial_seconds <= self.max_seconds:
            raise ConfigError(
                f"backoff requires 0 < initial <= max, got {self.initial_seconds}/{self.max_seconds}"
            )

    def delays(self) -> Iterator[float]:
        """Infinite delay sequence; retrying never stops."""
        delay = self.initial_seconds
        while True:
            yield delay
            delay = min(delay * 2, self.max_seconds)


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
        if not isinstance(port, int) or isinstance(port, bool) or not 0 <= port <= 65535:
            raise ConfigError(f"server_address: port {port!r} is not an integer in [0, 65535]")
        if not isinstance(host, str) or "[" in host or "]" in host:
            raise ConfigError(f"server_address: host {host!r} is not a host name or address")
        # The IDNA codec's rule for a nonempty ASCII host, which the runtime
        # resolves without the codec: past one trailing dot, every label has
        # 1-63 characters.
        labels = host.removesuffix(".").split(".") if host.isascii() and host else []
        if not all(0 < len(label) < 64 for label in labels):
            raise ConfigError(
                f"server_address: host {host!r} has an empty label or one over 63 characters"
            )
        object.__setattr__(self, "server_address", (host, port))
        if self.site_index < 0:
            raise ConfigError(f"site_index must be >= 0, got {self.site_index}")


def parse_address(text: str) -> tuple:
    """Parse 'host:port' (split on the last colon) or '[IPv6 address]:port'."""
    host, sep, port = text.rpartition(":")
    if host.startswith("[") and host.endswith("]"):
        host = host[1:-1]
    if not sep or not host or not (port.isascii() and port.isdigit()) or int(port) > 65535:
        raise ConfigError(f"expected HOST:PORT, got {text!r}")
    return host, int(port)


# --- session commands (executed by the runtime; a Message is sent) ------------


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

    The algorithm arrives in each accepted join ack, not in the tasks. It is
    experiment config, not training state, so the session keeps it for its
    whole lifetime, crashes included. A task before any accepted ack is a
    ``ProtocolError``.

    The site's data is built with the session, before any connect, and
    survives ``reset_process_state``: it is a pure function of the seed and
    the site index, so a restarted process would rebuild the same bytes.
    """

    def __init__(self, cfg: ClientConfig, trainer: TrainerConfig, heterogeneity: HeterogeneityConfig):
        self.cfg = cfg
        self.trainer = trainer
        self.heterogeneity = heterogeneity
        self.algorithm: Optional[AlgorithmConfig] = None
        self.personal_params: Optional[ParameterVector] = None
        # The round whose personal step was last taken, and its start model.
        self._personal_round: Optional[int] = None
        self._personal_start: Optional[ParameterVector] = None
        self._held: Optional[ModelUpdate] = None
        self.data = generate_site_data(
            heterogeneity, cfg.site_index, cfg.data_seed, task=trainer.trainer, role="train"
        )

    def on_connected(self) -> list:
        return [Message("join_request", 0, self.cfg.site_name)]

    def on_message(self, msg: Message) -> list:
        """The commands ``msg`` calls for. A refused join raises ConfigError:
        the site is not part of this experiment."""
        if msg.kind == "join_ack":
            if not msg.body.accepted:
                raise ConfigError(msg.body.reason or "join rejected")
            self.algorithm = msg.body.algorithm
            if self._held is not None:
                if self._held.round == msg.body.current_round:
                    logger.info(
                        "%s resubmitting round %d after reconnect",
                        self.cfg.site_name,
                        self._held.round,
                    )
                    return [self._update_message(self._held)]
                self._held = None  # the federation moved on; discard
            return []
        if msg.kind == "task_assignment":
            if self.algorithm is None:
                raise ProtocolError(f"task for round {msg.round} before an accepted join ack")
            self._held = None  # any older unsent work is superseded
            return [TrainTask(msg.round, msg.body.params, self.algorithm)]
        if msg.kind == "experiment_done":
            return [Exit(0)]
        if msg.kind == "abort":
            return [Exit(1, msg.body.reason)]
        return []  # client-only kinds from a confused server

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
        return [self._update_message(update)]

    def reset_process_state(self) -> None:
        """Crash semantics: in-memory state (held update, personal model) is
        lost. The algorithm is experiment config and stays."""
        self._held = None
        self.personal_params = None
        self._personal_round = None
        self._personal_start = None

    def _update_message(self, update: ModelUpdate) -> Message:
        return Message("update_submission", update.round, update.client_id, update)


# --- TCP runtime ----------------------------------------------------------------

# TCP keepalive on a connected client socket: after this many idle seconds
# the kernel probes the server every interval, and after this many
# unanswered probes it fails the socket. A server host that vanished without
# closing (power loss, a cut link) then ends a blocked recv in about two
# minutes, and the client reconnects instead of waiting forever.
KEEPALIVE_IDLE_SECONDS = 60
KEEPALIVE_INTERVAL_SECONDS = 10
KEEPALIVE_PROBES = 6


def _enable_keepalive(sock: socket.socket) -> None:
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    for name, value in (
        ("TCP_KEEPIDLE", KEEPALIVE_IDLE_SECONDS),
        ("TCP_KEEPINTVL", KEEPALIVE_INTERVAL_SECONDS),
        ("TCP_KEEPCNT", KEEPALIVE_PROBES),
    ):
        if hasattr(socket, name):  # not every platform tunes these
            sock.setsockopt(socket.IPPROTO_TCP, getattr(socket, name), value)


class ClientRuntime:
    """Blocking TCP loop around a :class:`ClientSession`. The session, and
    with it the site's data, is built here, before the first connect."""

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
        host, port = self.cfg.server_address
        # getaddrinfo runs a str host through the IDNA codec, whose first use
        # imports encodings.idna, stringprep and unicodedata; an ASCII host
        # needs none of it. ClientConfig has refused what the codec would.
        address = (host.encode("ascii") if host.isascii() else host, port)
        delays = self.cfg.reconnect_backoff.delays()
        while True:
            try:
                return socket.create_connection(address, timeout=5.0)
            except OSError:
                time.sleep(next(delays))

    def _serve(self, sock: socket.socket) -> Optional[int]:
        decoder = FrameDecoder()
        try:
            with sock:
                # Only connecting is bounded: a timeout would also cut any
                # sendall that the server cannot take within it. Keepalive
                # bounds only the wait of an idle connection.
                sock.settimeout(None)
                _enable_keepalive(sock)
                self._execute(self.session.on_connected(), sock)
                while True:
                    chunk = sock.recv(65536)
                    if not chunk:
                        return None  # server closed; reconnect
                    for msg in decoder.feed(chunk):
                        code = self._execute(self.session.on_message(msg), sock)
                        if code is not None:
                            return code
        except (OSError, ProtocolError) as exc:
            logger.debug("%s connection dropped: %s", self.cfg.site_name, exc)
            return None

    def _execute(self, cmds: list, sock: socket.socket) -> Optional[int]:
        """Run the session's commands; returns the exit code of an Exit."""
        for cmd in cmds:
            if isinstance(cmd, Message):
                sock.sendall(encode(cmd))
            elif isinstance(cmd, TrainTask):
                t0 = time.perf_counter()
                update = self.session.train(cmd.round_index, cmd.params, cmd.algorithm)
                update = dataclasses.replace(update, train_seconds=time.perf_counter() - t0)
                self._execute(self.session.on_trained(update), sock)  # sends only
            elif isinstance(cmd, Exit):
                if cmd.code == 0:
                    logger.info("%s: experiment done", self.cfg.site_name)
                else:
                    logger.warning("%s: experiment aborted: %s", self.cfg.site_name, cmd.reason)
                return cmd.code
        return None


def run_client(cfg: ClientConfig, trainer: TrainerConfig, heterogeneity: HeterogeneityConfig) -> int:
    """Run a site against a (possibly not yet started) server; see ClientRuntime."""
    return ClientRuntime(cfg, trainer, heterogeneity).run()
