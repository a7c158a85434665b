"""Shared value types: parameter vectors, model updates, and evaluation scores.

Parameters travel as a single flat float64 vector; layer structure is the
trainer's private concern, which keeps aggregation code trainer-independent.
All types here are immutable values after construction and safe to share
between threads without coordination.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionError, DomainError, NumericError

EVAL_METRICS = ("dice", "mse_loss")


def _as_readonly_f64(values) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=True)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ParameterVector:
    """Flat, ordered float64 weight vector; the unit exchanged with the server."""

    values: np.ndarray

    def __post_init__(self):
        arr = _as_readonly_f64(self.values)
        if arr.ndim != 1:
            raise DimensionError(f"parameter vector must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise DimensionError("parameter vector must have at least one element")
        if not np.all(np.isfinite(arr)):
            raise NumericError("parameter vector contains non-finite values")
        object.__setattr__(self, "values", arr)

    @property
    def dim(self) -> int:
        return int(self.values.size)

    @classmethod
    def zeros(cls, dim: int) -> "ParameterVector":
        return cls(np.zeros(int(dim), dtype=np.float64))

    def tolist(self) -> list:
        return self.values.tolist()

    def __eq__(self, other) -> bool:
        if not isinstance(other, ParameterVector):
            return NotImplemented
        return self.values.shape == other.values.shape and bool(
            np.array_equal(self.values, other.values)
        )

    def __repr__(self) -> str:
        head = ", ".join(repr(v) for v in self.values[:4].tolist())
        tail = ", ..." if self.dim > 4 else ""
        return f"ParameterVector([{head}{tail}], dim={self.dim})"


@dataclass(frozen=True)
class ModelUpdate:
    """A client's post-training parameters plus the sample count used as its
    aggregation weight and the (measured or simulated) training time."""

    client_id: str
    round: int
    params: ParameterVector
    sample_count: int
    train_seconds: float = 0.0

    def __post_init__(self):
        if self.round < 0:
            raise DomainError(f"round must be non-negative, got {self.round}")
        if self.sample_count < 1:
            raise DomainError(f"sample_count must be >= 1, got {self.sample_count}")
        if not np.isfinite(self.train_seconds) or self.train_seconds < 0:
            raise NumericError(f"train_seconds must be finite and >= 0, got {self.train_seconds}")


@dataclass(frozen=True)
class EvalScore:
    """Mean/std of a metric over a site's evaluation cases (std is across cases)."""

    mean: float
    std: float
    metric: str

    def __post_init__(self):
        if self.metric not in EVAL_METRICS:
            raise DomainError(f"unknown metric {self.metric!r}; expected one of {EVAL_METRICS}")
        if not np.isfinite(self.mean) or not np.isfinite(self.std):
            raise NumericError("score mean/std must be finite")
        if self.std < 0:
            raise DomainError(f"std must be non-negative, got {self.std}")
        if self.metric == "dice" and not 0.0 <= self.mean <= 1.0:
            raise DomainError(f"dice mean must lie in [0, 1], got {self.mean}")


def add_scaled(a: ParameterVector, b: ParameterVector, coeff: float) -> ParameterVector:
    """Element-wise a + coeff * b."""
    if a.dim != b.dim:
        raise DimensionError(f"dim mismatch: {a.dim} vs {b.dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        out = a.values + coeff * b.values
    if not np.all(np.isfinite(out)):
        raise NumericError("add_scaled produced a non-finite result")
    return ParameterVector(out)


def l2_distance(a: ParameterVector, b: ParameterVector) -> float:
    """Euclidean distance between two equal-dimension vectors."""
    if a.dim != b.dim:
        raise DimensionError(f"dim mismatch: {a.dim} vs {b.dim}")
    return float(np.linalg.norm(a.values - b.values))


def dice_score(predicted: Sequence | Iterable, truth: Sequence | Iterable) -> float:
    """Overlap 2*|A∩B| / (|A|+|B|) between two flat 0/1 masks.

    Defined as 1.0 when both masks are all-zero (perfect agreement on the
    empty segmentation), which keeps the metric total.
    """
    p = np.asarray(predicted)
    t = np.asarray(truth)
    if p.ndim != 1 or t.ndim != 1 or p.shape != t.shape:
        raise DimensionError(f"mask shape mismatch: {p.shape} vs {t.shape}")
    for name, m in (("predicted", p), ("truth", t)):
        if not np.all((m == 0) | (m == 1)):
            raise DomainError(f"{name} mask contains non-binary entries")
    size_p = int(np.count_nonzero(p))
    size_t = int(np.count_nonzero(t))
    if size_p + size_t == 0:
        return 1.0
    intersection = int(np.count_nonzero((p == 1) & (t == 1)))
    return (2 * intersection) / (size_p + size_t)


def to_json(value):
    """JSON-ready form of a value built from this package's types.

    A dataclass becomes ``{field: value}``, a parameter vector and a tuple
    become lists, and mappings keep their keys. Config echoes, reports and
    their extras all serialize through here, so the dataclasses are the one
    schema.
    """
    if isinstance(value, ParameterVector):
        return value.tolist()
    if dataclasses.is_dataclass(value):
        return {f.name: to_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, dict):
        return {key: to_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(item) for item in value]
    return value
