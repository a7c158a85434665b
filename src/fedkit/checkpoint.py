"""The ``fedkit-checkpoint-v2`` file: the last aggregated global model and
its round, saved durably after each round and read back by a resume.

A checkpoint file is two slots of S bytes each, S a multiple of 4096 sized
once from the model dimension. Round r is written to slot r % 2 as one
record: a fixed header (magic, round, payload length, sha256 of the config
hash, then a sha256 over those fields, the payload and the seal), the JSON
document, and one seal byte. The rest of the slot is zeros.
"""

import contextlib
import hashlib
import json
import os
import struct
import tempfile
from typing import Optional

from .errors import CheckpointError, FedkitError, IoError
from .params import ParameterVector

CHECKPOINT_FORMAT = "fedkit-checkpoint-v2"

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
