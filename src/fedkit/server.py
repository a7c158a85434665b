"""Federation aggregator: lifecycle state machine, round orchestration,
fault policy, and checkpointing.

The :class:`FederationCoordinator` is transport-agnostic. Runtimes feed it
events (join, update, client loss, timeout) and execute the command list it
returns; all round-state mutation happens inside the coordinator, one event
at a time. The TCP runtime here drives it from one selector loop on one
thread, which accepts, reads and decodes connections itself, so no event
crosses a thread and the coordinator never waits on a socket read. The
simulator drives the very same coordinator from a virtual clock, which is
what keeps simulated and deployed round semantics identical.

Rounds are synchronous: round r+1's task is broadcast only after round r's
aggregation completes, and a round aggregates only updates whose round index
matches; stale submissions are discarded, never averaged in.
"""
from __future__ import annotations

import contextlib
import hashlib
import json
import logging
import math
import os
import selectors
import socket
import struct
import tempfile
import time
from dataclasses import dataclass, field
from typing import Optional

from .aggregation import AlgorithmConfig, federated_average
from .errors import (
    CheckpointError,
    ConfigError,
    ExperimentAborted,
    FedkitError,
    IoError,
    ProtocolError,
    StartupError,
)
from .metrics import ClientRoundStat, ExperimentReport, RoundRecord, summarize
from .params import ModelUpdate, ParameterVector, to_json
from .protocol import (
    Abort,
    FrameDecoder,
    JoinAck,
    Message,
    TaskAssignment,
    encode,
)
from .training import (
    HeterogeneityConfig,
    TrainerConfig,
    evaluate,
    generate_site_data,
    initial_global,
    metric_for,
    with_fraction,
)

logger = logging.getLogger(__name__)

LOSS_POLICIES = ("wait", "continue_without")

CHECKPOINT_FORMAT = "fedkit-checkpoint-v2"


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
            raise ConfigError("site name must be non-empty")
        if self.fraction is not None and not 0.0 < self.fraction <= 1.0:
            raise ConfigError(f"site {self.name!r}: fraction must lie in (0, 1], got {self.fraction}")


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
            raise ConfigError("at least one site is required")
        names = [s.name for s in sites]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate site names: {names}")
        if not any(s.expected for s in sites):
            raise ConfigError("at least one site must be expected")
        object.__setattr__(self, "sites", sites)
        if not isinstance(self.rounds, int) or isinstance(self.rounds, bool) or self.rounds < 1:
            raise ConfigError(f"rounds must be a positive integer, got {self.rounds!r}")
        if self.on_client_loss not in LOSS_POLICIES:
            raise ConfigError(
                f"unknown on_client_loss {self.on_client_loss!r}; expected one of {LOSS_POLICIES}"
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
            raise ConfigError("continue_without requires min_clients_per_round")
        if not self.checkpoint_path:
            raise ConfigError("checkpoint_path must be non-empty")
        if self.round_timeout_seconds is not None and self.round_timeout_seconds <= 0:
            raise ConfigError(
                f"round_timeout_seconds must be positive or null, got {self.round_timeout_seconds}"
            )
        if self.round_timeout_seconds is not None and not math.isfinite(self.round_timeout_seconds):
            # A NaN timeout never fires; an infinite one is what null means.
            raise ConfigError(f"round_timeout_seconds must be finite, got {self.round_timeout_seconds}")

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
        return with_fraction(self.heterogeneity, self.sites[index].fraction)


def config_to_dict(cfg: FederationConfig) -> dict:
    """Canonical JSON-ready form; the config echo in reports. It parses back
    to an equal config."""
    return to_json(cfg)


def config_hash(cfg: FederationConfig) -> str:
    """Identity of the experiment a checkpoint belongs to.

    Operational knobs (checkpoint path, timeout) are excluded: moving a
    checkpoint file or adjusting a timeout does not change the experiment,
    while resuming under a different algorithm or data config must fail.
    """
    doc = config_to_dict(cfg)
    doc.pop("checkpoint_path")
    doc.pop("round_timeout_seconds")
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# --- checkpointing ---------------------------------------------------------


# A checkpoint file is two slots of S bytes each, S a multiple of _PAGE sized
# once from the model dimension. Round r is written to slot r % 2 as one
# record: a fixed header (magic, round, payload length, sha256 of the config
# hash, then a sha256 over those fields, the payload and the seal), the JSON
# document, and one seal byte. The rest of the slot is zeros.
_MAGIC = b"FKC2"
_FIELDS = struct.Struct("<4sQQ32s")
_HEADER_SIZE = _FIELDS.size + hashlib.sha256().digest_size
_PAGE = 4096
# Per slot beyond the header: room for the document's keys, format, round
# and config hash, and at most 24 characters plus a comma per float.
_SLOT_OVERHEAD = 512
_BYTES_PER_PARAM = 25
_FILL_CHUNK = 1 << 20


def _seal(round_index: int) -> bytes:
    """The record's last byte: never zero, never ASCII, and different for
    rounds r and r - 2, which share a slot. Whatever an in-place write lands
    on (zeros, JSON text or the old seal), this byte changes, so a write torn
    anywhere before it leaves a slot that fails its checksum."""
    return bytes((0x80 | ((round_index >> 1) & 1),))


def _config_key(cfg_hash: str) -> bytes:
    return hashlib.sha256(cfg_hash.encode("utf-8")).digest()


def _record(round_index: int, payload: bytes, cfg_hash: str) -> bytes:
    """One slot's record: header, JSON document, seal."""
    fields = _FIELDS.pack(_MAGIC, round_index, len(payload), _config_key(cfg_hash))
    seal = _seal(round_index)
    checksum = hashlib.sha256(fields)
    checksum.update(payload)
    checksum.update(seal)
    return b"".join((fields, checksum.digest(), payload, seal))


def _slot_size(dim: int, record_size: int) -> int:
    """Slot bytes: fixed for a model dimension, so a slot never grows within
    an experiment, and never smaller than the record."""
    need = max(_HEADER_SIZE + _SLOT_OVERHEAD + _BYTES_PER_PARAM * dim, record_size)
    return -(-need // _PAGE) * _PAGE


def save_checkpoint(path: str, round_index: int, params: ParameterVector, cfg_hash: str) -> None:
    """Durably persist (round, global model) into slot ``round_index % 2``.

    In steady state the other slot holds the previous round of this
    experiment, and the record overwrites this slot in place, followed by
    one ``fdatasync``: no new file, no rename. Otherwise (first save, a
    start-over, another run's file) a fresh file is written under a unique
    temporary name, fsynced, renamed over the target, and its directory is
    fsynced. A crash at any byte boundary leaves the slot being written
    either complete or failing its checksum, so resume finds the previous
    round or the new one, never a torn one."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "round": round_index,
        "global": params.tolist(),
        "config_hash": cfg_hash,
    }
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("ascii")
    record = _record(round_index, payload, cfg_hash)
    slot = _slot_size(params.dim, len(record))
    try:
        if not _overwrite_slot(path, record, slot, round_index, cfg_hash):
            _write_fresh(path, record, slot, round_index)
    except OSError as exc:
        raise IoError(f"cannot write checkpoint {path}: {exc}") from exc


def _overwrite_slot(path: str, record: bytes, slot: int, round_index: int, cfg_hash: str) -> bool:
    """Write the record in place if the file is this experiment's two-slot
    file of this size holding round ``round_index - 1``; else return False."""
    try:
        fd = os.open(path, os.O_RDWR)
    except FileNotFoundError:
        return False
    try:
        if os.fstat(fd).st_size != 2 * slot:
            return False
        offset = (round_index % 2) * slot
        magic, other_round, _, key = _FIELDS.unpack(
            os.pread(fd, _FIELDS.size, slot - offset)
        )
        if magic != _MAGIC or other_round != round_index - 1 or key != _config_key(cfg_hash):
            return False
        view = memoryview(record)
        while view:
            written = os.pwrite(fd, view, offset)
            view, offset = view[written:], offset + written
        getattr(os, "fdatasync", os.fsync)(fd)
        return True
    finally:
        os.close(fd)


def _write_fresh(path: str, record: bytes, slot: int, round_index: int) -> None:
    """Replace the file with one holding the record in its slot and zeros
    elsewhere. The zeros are written, not left as a hole, so later in-place
    writes allocate no blocks."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            before = (round_index % 2) * slot
            _write_zeros(fh, before)
            fh.write(record)
            _write_zeros(fh, 2 * slot - before - len(record))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    dir_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def _write_zeros(fh, count: int) -> None:
    zeros = memoryview(bytes(min(count, _FILL_CHUNK)))
    while count:
        chunk = min(count, len(zeros))
        fh.write(zeros[:chunk])
        count -= chunk


def _newest_payload(path: str, fd: int) -> bytes:
    """The JSON document of the highest-round slot whose magic, length and
    checksum hold."""
    if os.pread(fd, 1, 0) == b"{":
        raise CheckpointError(
            f"{path} is a fedkit-checkpoint-v1 file; only {CHECKPOINT_FORMAT} files are read"
        )
    size = os.fstat(fd).st_size
    if size == 0 or size % (2 * _PAGE):
        raise CheckpointError(
            f"{path} is not a {CHECKPOINT_FORMAT} file: {size} bytes is not two "
            f"slots of a multiple of {_PAGE} bytes"
        )
    slot = size // 2
    headers = []
    for offset in (0, slot):
        header = os.pread(fd, _HEADER_SIZE, offset)
        magic, round_index, length, _ = _FIELDS.unpack_from(header)
        if magic == _MAGIC and _HEADER_SIZE + length < slot:
            headers.append((round_index, offset, length, header))
    for _, offset, length, header in sorted(headers, reverse=True):
        body = os.pread(fd, length + 1, offset + _HEADER_SIZE)  # payload and seal
        checksum = hashlib.sha256(header[: _FIELDS.size])
        checksum.update(body)
        if checksum.digest() == header[_FIELDS.size :]:
            return body[:-1]
    raise CheckpointError(f"corrupt checkpoint {path}: no slot passes its checksum")


def resume_from_checkpoint(
    path: str, expected_config_hash: Optional[str] = None
) -> tuple[ParameterVector, int]:
    """Load the last aggregated global model and the next round index.

    A restarted server re-broadcasts the task for the returned round. A
    config-hash mismatch is a hard error: resuming under a different
    experiment config would silently corrupt it.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except FileNotFoundError as exc:
        raise CheckpointError(f"no checkpoint at {path}") from exc
    except OSError as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    try:
        doc = json.loads(_newest_payload(path, fd))
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
    finally:
        os.close(fd)
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a {CHECKPOINT_FORMAT} file")
    if set(doc) != {"format", "round", "global", "config_hash"}:
        raise CheckpointError(f"checkpoint {path} has unexpected structure")
    round_index = doc["round"]
    if type(round_index) is not int or round_index < 0:
        raise CheckpointError(f"checkpoint {path} has invalid round {round_index!r}")
    if not isinstance(doc["config_hash"], str):
        raise CheckpointError(f"checkpoint {path} has invalid config hash {doc['config_hash']!r}")
    if expected_config_hash is not None and doc["config_hash"] != expected_config_hash:
        raise CheckpointError(
            f"checkpoint {path} belongs to a different experiment config "
            f"({doc['config_hash'][:12]}… vs {expected_config_hash[:12]}…)"
        )
    try:
        params = ParameterVector(doc["global"])
    except (FedkitError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"checkpoint {path} has invalid parameters: {exc}") from exc
    return params, round_index + 1


# --- round state -------------------------------------------------------------


@dataclass
class RoundState:
    """Mutable state of the round being collected."""

    round: int
    received: dict = field(default_factory=dict)  # site -> ModelUpdate
    pending: set = field(default_factory=set)
    arrivals: dict = field(default_factory=dict)
    dropped: set = field(default_factory=set)


# --- coordinator commands ----------------------------------------------------


@dataclass(frozen=True)
class Send:
    site: str
    message: Message


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
            return [Send(site, self._ack(site, accepted=False, reason=f"unknown site {site!r}"))]
        self._connected.add(site)
        cmds = [Send(site, self._ack(site, accepted=True))]
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
            JoinAck(accepted=accepted, current_round=self._round, reason=reason),
        )

    def _closing_message(self, site: str) -> Send:
        if self.status == "completed":
            return Send(site, Message("experiment_done", self._round, site))
        return Send(site, Message("abort", self._round, site, Abort(self.abort_reason)))

    def _task_send(self, site: str) -> Send:
        msg = Message(
            "task_assignment",
            self._round,
            site,
            TaskAssignment(params=self._global, algorithm=self.cfg.algorithm),
        )
        return Send(site, msg)

    def _open_round(self, now: float) -> list:
        participants = self._expected | (self._connected & self._known)
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


def evaluate_sites(cfg: FederationConfig, params: ParameterVector) -> dict:
    """Score a model on every site's validation data.

    Site data is synthetic and fully determined by the shared config, so the
    server can regenerate each site's validation draw itself; nothing
    private crosses the wire for evaluation.
    """
    metric = metric_for(cfg.trainer)
    scores = {}
    for index, spec in enumerate(cfg.sites):
        data = generate_site_data(
            cfg.site_heterogeneity(index),
            index,
            cfg.trainer.seed,
            task=cfg.trainer.trainer,
            role="val",
        )
        scores[spec.name] = evaluate(params, data, metric)
    return scores


def build_experiment_report(
    cfg: FederationConfig,
    records: list,
    final_global: ParameterVector,
    *,
    validate_seconds: float = 0.0,
    status: str = "completed",
    final_scores: Optional[dict] = None,
) -> ExperimentReport:
    if final_scores is None:
        final_scores = evaluate_sites(cfg, final_global)
    return summarize(
        records,
        final_scores,
        final_global=final_global,
        config=config_to_dict(cfg),
        validate_seconds=validate_seconds,
        status=status,
    )


# --- TCP runtime ---------------------------------------------------------------

POLL_SECONDS = 0.2  # longest the loop sleeps before it looks at stop() again
SEND_TIMEOUT_SECONDS = 0.5  # bounds a send to a peer that stopped reading
# What a connection may buffer before it has joined; a join_request frame is
# about 70 B, so anything past this is not a client.
PREJOIN_BUFFER_BYTES = 4096


class _Connection:
    """One client socket and the decoder of its byte stream."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.decoder = FrameDecoder()
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
    frame decoder, no thread. ``stop()`` abandons the run from any thread
    (for restart tests and operator interrupts) and takes effect within
    one poll. A later server built with ``resume=True`` reads the checkpoint
    before it binds the port, so a CheckpointError leaves the port free.
    """

    def __init__(
        self,
        cfg: FederationConfig,
        listen=("127.0.0.1", 0),
        *,
        resume: bool = False,
        startup_timeout: float = 30.0,
    ):
        self.cfg = cfg
        self._cfg_hash = config_hash(cfg)
        start_round, start_global = 0, None
        if resume:
            start_global, start_round = resume_from_checkpoint(
                cfg.checkpoint_path, self._cfg_hash
            )
            logger.info("resuming from checkpoint at round %d", start_round)
        self._coordinator = FederationCoordinator(
            cfg, start_round=start_round, start_global=start_global
        )
        self._startup_timeout = startup_timeout
        self._stopped = False
        self._connections: dict = {}  # site -> the _Connection that owns it
        self._listener = socket.create_server(listen)
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
            if not self._any_join and now - started > self._startup_timeout:
                raise StartupError(f"no client joined within {self._startup_timeout:.0f} s")
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
            if conn.site is None and conn.decoder.pending_bytes > PREJOIN_BUFFER_BYTES:
                raise ProtocolError(
                    f"{conn.decoder.pending_bytes} bytes buffered before a join_request"
                )
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
        if conn.site is None:
            if msg.kind != "join_request":
                raise ProtocolError(f"expected join_request, got {msg.kind}")
            self._any_join = True
            conn.site = msg.client_id
            self._connections[conn.site] = conn
            cmds = self._coordinator.on_join(conn.site, now)
        elif msg.kind == "update_submission":
            if msg.client_id != conn.site:
                raise ProtocolError(
                    f"update from {msg.client_id!r} on {conn.site!r}'s connection"
                )
            cmds = self._coordinator.on_update(msg.client_id, msg.body, now)
        elif msg.kind == "heartbeat":
            return
        else:
            raise ProtocolError(f"unexpected {msg.kind} from client")
        self._execute(cmds)

    def _execute(self, cmds: list) -> None:
        for cmd in cmds:
            if isinstance(cmd, Send):
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

    def _send(self, cmd: Send) -> None:
        conn = self._connections.get(cmd.site)
        if conn is None:
            return
        try:
            conn.sock.sendall(encode(cmd.message))
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
