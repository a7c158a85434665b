"""Instrumentation the benchmark wraps around fedkit's public calls.

Nothing here edits fedkit. Modules bind names at import
(``from .protocol import encode``), so each caller module's attribute is
replaced, and a few methods are replaced at class level.

Two levels:

* :class:`Hooks` is all an untraced run keeps: one clock read when a
  runtime's ``save_checkpoint`` returns (a round boundary) and one
  ``len()`` per frame ``encode`` returns.
* :class:`Tracer` records spans (name, start, end, parent, thread, round)
  in memory plus a few counters; :func:`layer_metrics` folds them into the
  per-layer numbers.
"""
from __future__ import annotations

import hashlib
import itertools
import os
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

# Spans that enclose a whole run; they are not a layer of the round.
CONTAINER_SPANS = ("config.parse", "server.run", "simulator.simulate")


def import_fedkit():
    """Import fedkit from this checkout's ``src/`` and nowhere else."""
    package = os.path.join(SRC, "fedkit", "__init__.py")
    if not os.path.isfile(package):
        raise SystemExit(f"bench: no fedkit sources at {os.path.dirname(package)}")
    sys.path.insert(0, SRC)
    import fedkit

    if os.path.dirname(os.path.abspath(fedkit.__file__)) != os.path.dirname(package):
        raise SystemExit(f"bench: imported fedkit from {fedkit.__file__}, not from {SRC}")
    return fedkit


def fedkit_modules(fedkit) -> dict:
    """The fedkit modules whose attributes the hooks replace."""
    return {name: getattr(fedkit, name)
            for name in ("server", "client", "simulator", "protocol", "params")}


def model_digest(params) -> str:
    """Bit-exact identity of a parameter vector."""
    return hashlib.sha256(params.values.tobytes()).hexdigest()


class Hooks:
    """Round boundaries and encoded frame lengths; list appends only, so
    threads need no lock.

    An update frame also carries the client's measured training time, whose
    printed width varies from run to run, so its width is noted too: the
    rest of the byte count must repeat exactly.
    """

    def __init__(self):
        self.boundaries: list = []
        self.frame_lengths: list = []
        self.timing_widths: list = []

    def install(self, modules: dict, runtime: str) -> None:
        """Hook the process that runs ``runtime``: 'tcp' (the server),
        'client' (the TCP clients) or 'sim' (the simulator)."""
        owner = modules[{"tcp": "server", "client": "client", "sim": "simulator"}[runtime]]
        _replace(owner, "encode", self._encode_hook)
        if runtime != "client":
            _replace(owner, "save_checkpoint", self._boundary_hook)

    def _encode_hook(self, original):
        lengths, widths = self.frame_lengths, self.timing_widths

        def encode(msg):
            frame = original(msg)
            lengths.append(len(frame))
            if msg.kind == "update_submission":
                widths.append(len(repr(msg.body.train_seconds)))
            return frame

        return encode

    def _boundary_hook(self, original):
        boundaries = self.boundaries
        clock = time.perf_counter

        def save_checkpoint(*args, **kwargs):
            original(*args, **kwargs)
            boundaries.append(clock())

        return save_checkpoint


def _replace(owner, attr: str, make_wrapper) -> None:
    setattr(owner, attr, make_wrapper(getattr(owner, attr)))


class Tracer:
    """In-memory span recorder with a thread-local parent stack."""

    def __init__(self):
        self.spans: list = []  # [id, name, start, end, parent, thread, round]
        self.frames: list = []  # (kind, length, params carried)
        self.round = 0
        # itertools.count advances atomically, so threads can share these.
        self._ids = itertools.count()
        self._vectors = itertools.count()
        self._resubmits = itertools.count()
        self._updates = itertools.count()
        self._local = threading.local()
        self._coordinators: dict = {}  # id -> coordinator, for stale counts

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn):
        """``fn`` wrapped so that each call records one span."""
        spans, ids, stack_of = self.spans, self._ids, self._stack
        clock, ident = time.perf_counter, threading.get_ident
        tracer = self

        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append([span_id, name, start, end, parent, ident(), tracer.round])

        return traced

    def install(self, modules: dict, runtime: str) -> None:
        """Wrap every layer boundary reachable from ``runtime``'s process."""
        server, client, simulator = modules["server"], modules["client"], modules["simulator"]
        protocol, params = modules["protocol"], modules["params"]
        wrap = self._wrap
        if runtime in ("client", "sim"):
            wrap(client, "encode", "protocol.encode", self._record_frame)
            wrap(client, "local_train", "training.local_train")
            wrap(client, "ditto_personal_round", "training.personal")
            wrap(client, "generate_site_data", "training.datagen")
            wrap(client.ClientSession, "train", "client.session_train")
            wrap(client.ClientSession, "on_message", "client.on_message", self._note_message)
        if runtime in ("tcp", "sim"):
            wrap(server, "federated_average", "aggregation.average")
            wrap(server, "evaluate_sites", "server.evaluate_sites")
            wrap(server, "build_experiment_report", "metrics.report")
            for event in ("on_join", "on_update", "on_client_lost", "on_timeout"):
                wrap(server.FederationCoordinator, event, f"server.coordinator.{event}",
                     self._note_coordinator)
        if runtime == "tcp":
            wrap(server, "encode", "protocol.encode", self._record_frame)
            wrap(server, "save_checkpoint", "server.checkpoint_save", self._next_round)
        if runtime == "sim":
            wrap(simulator, "encode", "protocol.encode", self._record_frame)
            wrap(simulator, "decode", "protocol.decode")
            wrap(simulator, "save_checkpoint", "server.checkpoint_save", self._next_round)
            wrap(simulator, "resume_from_checkpoint", "server.checkpoint_load")
            wrap(simulator, "build_experiment_report", "metrics.report")
        wrap(protocol.FrameDecoder, "feed", "protocol.decode")
        self._count_vectors(params.ParameterVector)

    def _wrap(self, owner, attr: str, name: str, observe=None) -> None:
        original = getattr(owner, attr)
        traced = self.span(name, original)
        if observe is None:
            setattr(owner, attr, traced)
            return

        def observed(*args, **kwargs):
            result = traced(*args, **kwargs)
            observe(args, result)
            return result

        setattr(owner, attr, observed)

    def _record_frame(self, args, frame) -> None:
        msg = args[0]
        params = getattr(msg.body, "params", None)
        self.frames.append((msg.kind, len(frame), params.dim if params is not None else 0))

    def _next_round(self, args, _result) -> None:
        self.round += 1

    def _note_message(self, args, cmds) -> None:
        msg = args[1]
        if msg.kind == "task_assignment":
            self.round = msg.round
        elif msg.kind == "join_ack" and cmds:
            next(self._resubmits)  # the held update goes out again

    def _note_coordinator(self, args, _cmds) -> None:
        coordinator = args[0]
        self._coordinators[id(coordinator)] = coordinator
        if len(args) == 4:  # on_update(self, site, update, now)
            next(self._updates)

    def _count_vectors(self, cls) -> None:
        original = cls.__post_init__
        built = self._vectors

        def __post_init__(self):
            next(built)
            original(self)

        cls.__post_init__ = __post_init__

    def export(self) -> dict:
        """Spans and counters, as plain JSON-ready data; call once, at the end."""
        return {
            "spans": self.spans,
            "frames": self.frames,
            "vectors_built": next(self._vectors),
            "resubmits": next(self._resubmits),
            # Each coordinator instance (one per server start) keeps its own count.
            "stale_updates": sum(c.stale_updates for c in self._coordinators.values()),
            "updates_seen": next(self._updates),
        }


def merge(parts: list) -> dict:
    """Merge exported traces of several processes on one host's
    ``perf_counter`` (CLOCK_MONOTONIC is shared between processes)."""
    merged = {"spans": [], "frames": [], "vectors_built": 0, "resubmits": 0,
              "stale_updates": 0, "updates_seen": 0}
    for process, part in enumerate(parts):
        for span in part["spans"]:
            span_id, name, start, end, parent, thread, round_index = span
            merged["spans"].append(
                ((process, span_id), name, start, end,
                 (process, parent) if parent >= 0 else None, (process, thread), round_index)
            )
        merged["frames"].extend(part["frames"])
        for key in ("vectors_built", "resubmits", "stale_updates", "updates_seen"):
            merged[key] += part[key]
    return merged


def _union_within(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def layer_metrics(trace: dict, boundaries: list, rounds: int, extra: dict) -> dict:
    """Per-layer numbers of one traced experiment.

    ``boundaries`` are the round-boundary clock reads; ``extra`` carries
    what the runtime reports itself (checkpoint size, reconnects, virtual
    time). Times are in ms; "per round" divides by the aggregated rounds.
    """
    spans = trace["spans"]
    child_time: dict = {}
    for _sid, _name, start, end, parent, _thread, _round in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)

    def total(prefix: str, self_only: bool = False) -> float:
        seconds = 0.0
        for sid, name, start, end, _parent, _thread, _round in spans:
            if name == prefix or name.startswith(prefix + "."):
                seconds += end - start - (child_time.get(sid, 0.0) if self_only else 0.0)
        return seconds * 1e3

    def count(prefix: str) -> int:
        return sum(1 for s in spans if s[1] == prefix or s[1].startswith(prefix + "."))

    frames = trace["frames"]
    param_frames = [(length, dim) for _kind, length, dim in frames if dim]
    carried = sum(dim for _length, dim in param_frames)

    lo, hi = boundaries[0], boundaries[-1]
    window = hi - lo
    layered = [(s[2], s[3]) for s in spans if s[1] not in CONTAINER_SPANS]
    coordinator_threads = {s[5] for s in spans if s[1] == "server.checkpoint_save"}
    coordinator_busy = [
        (s[2], s[3]) for s in spans if s[5] in coordinator_threads and s[1] not in CONTAINER_SPANS
    ]
    idle = window - _union_within(coordinator_busy, lo, hi)
    delivered = trace["updates_seen"]

    return {
        "protocol.encode_ms_per_round": total("protocol.encode") / rounds,
        "protocol.decode_ms_per_round": total("protocol.decode") / rounds,
        "protocol.frames_per_round": len(frames) / rounds,
        "protocol.bytes_per_param": (
            sum(length for length, _dim in param_frames) / carried if carried else 0.0
        ),
        "protocol.task_encodes_per_round": (
            sum(1 for kind, _l, _d in frames if kind == "task_assignment") / rounds
        ),
        "server.checkpoint_save_ms_per_round": total("server.checkpoint_save") / rounds,
        "server.checkpoint_bytes": extra["checkpoint_bytes"],
        "server.checkpoint_load_ms": total("server.checkpoint_load"),
        "server.coordinator_ms_per_round": total("server.coordinator", self_only=True) / rounds,
        "server.coordinator_events_per_round": count("server.coordinator") / rounds,
        "server.coordinator_idle_ms_per_round": idle * 1e3 / max(len(boundaries) - 1, 1),
        "server.stale_ratio": trace["stale_updates"] / delivered if delivered else 0.0,
        "client.resubmits": trace["resubmits"],
        "simulator.reconnects": extra["reconnects"],
        "aggregation.average_ms_per_round": total("aggregation.average") / rounds,
        "training.local_train_ms_per_round": total("training.local_train") / rounds,
        "client.session_train_ms_per_round": total("client.session_train") / rounds,
        "training.personal_ms_per_round": total("training.personal") / rounds,
        "params.vectors_built_per_round": trace["vectors_built"] / rounds,
        "simulator.self_ms_per_round": total("simulator.simulate", self_only=True) / rounds,
        "simulator.virtual_s": extra["virtual_s"],
        "config.parse_ms": total("config.parse"),
        "training.datagen_ms": total("training.datagen"),
        "server.evaluate_sites_ms": total("server.evaluate_sites"),
        "metrics.report_ms": total("metrics.report", self_only=True),
        "trace.accounted_pct": (
            100.0 * _union_within(layered, lo, hi) / window if window > 0 else 0.0
        ),
    }
