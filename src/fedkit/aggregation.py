"""The three algorithm variants of the round protocol.

Server side there is exactly one operation, weighted averaging of client
parameters. Client side there is one, the proximal gradient g + mu*(w -
w_global) of a local objective regularized toward the global model: fedprox
steps with mu = prox_mu, and ditto's personal track with mu = lambda. The
server path is identical for all three algorithms.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, DimensionError, EmptyAggregationError, ProtocolError
from .params import ModelUpdate, ParameterVector

ALGORITHM_KINDS = ("fedavg", "fedprox", "ditto")
WEIGHTINGS = ("sample_count", "uniform")


@dataclass(frozen=True)
class AlgorithmConfig:
    """Which algorithm runs, its regularization strengths, and the averaging weights.

    fedavg ignores both coefficients and requires them stored as zero, so a
    fedavg config is bit-for-bit the mu=0 / lambda=0 config.
    """

    kind: str = "fedavg"
    prox_mu: float = 0.0
    ditto_lambda: float = 0.0
    weighting: str = "sample_count"

    def __post_init__(self):
        if self.kind not in ALGORITHM_KINDS:
            raise ConfigError(f"kind must be one of {ALGORITHM_KINDS}, got {self.kind!r}")
        if self.weighting not in WEIGHTINGS:
            raise ConfigError(f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")
        if not math.isfinite(self.prox_mu) or self.prox_mu < 0:
            raise ConfigError(f"prox_mu must be finite and >= 0, got {self.prox_mu}")
        if not math.isfinite(self.ditto_lambda) or self.ditto_lambda < 0:
            raise ConfigError(f"ditto_lambda must be finite and >= 0, got {self.ditto_lambda}")
        if self.kind == "fedavg" and (self.prox_mu != 0.0 or self.ditto_lambda != 0.0):
            name = "prox_mu" if self.prox_mu != 0.0 else "ditto_lambda"
            raise ConfigError(f"{name} must be 0 under fedavg, which ignores it")


def federated_average(updates: Sequence[ModelUpdate], weighting: str = "sample_count") -> ParameterVector:
    """Average client parameters, weighted by sample count or uniformly.

    The result is clipped into the per-coordinate min/max envelope of the
    inputs so the convex-combination contract holds exactly despite float
    round-off in the normalized weights (N copies of a vector average to
    that vector, bit for bit).
    """
    if len(updates) == 0:
        raise EmptyAggregationError("cannot aggregate an empty update list")
    dim = updates[0].params.dim
    round_index = updates[0].round
    for u in updates:
        if u.params.dim != dim:
            raise DimensionError(f"mixed dims in aggregation: {dim} vs {u.params.dim}")
        if u.round != round_index:
            raise ProtocolError(f"mixed rounds in aggregation: {round_index} vs {u.round}")
    if weighting == "sample_count":
        raw = np.array([u.sample_count for u in updates], dtype=np.float64)
    elif weighting == "uniform":
        raw = np.ones(len(updates), dtype=np.float64)
    else:
        raise ConfigError(f"unknown weighting {weighting!r}; expected one of {WEIGHTINGS}")
    weights = raw / raw.sum()
    stacked = np.stack([u.params.values for u in updates])
    avg = weights @ stacked
    np.clip(avg, stacked.min(axis=0), stacked.max(axis=0), out=avg)
    return ParameterVector(avg)


def _prox_grad_values(local_grad: np.ndarray, w: np.ndarray, w_global: np.ndarray, mu: float) -> np.ndarray:
    # mu == 0 must return the gradient bit-identically, not via a multiply by 0.
    if mu == 0.0:
        return local_grad
    return local_grad + mu * (w - w_global)


def proximal_loss_gradient(
    local_grad: ParameterVector, w: ParameterVector, w_global: ParameterVector, mu: float
) -> ParameterVector:
    """Gradient of the proximally regularized local objective: g + mu*(w - w_global).

    With mu = 0 the local gradient is returned unchanged, so the regularized
    path reduces exactly to the plain one.
    """
    if not (local_grad.dim == w.dim == w_global.dim):
        raise DimensionError(
            f"dim mismatch: grad {local_grad.dim}, w {w.dim}, w_global {w_global.dim}"
        )
    if not math.isfinite(mu) or mu < 0:
        raise ConfigError(f"mu must be finite and >= 0, got {mu}")
    if mu == 0.0:
        return local_grad
    return ParameterVector(_prox_grad_values(local_grad.values, w.values, w_global.values, mu))


def ditto_personal_step(
    v: ParameterVector,
    local_grad_at_v: ParameterVector,
    w_global: ParameterVector,
    lam: float,
    lr: float,
) -> ParameterVector:
    """One personalization step: v - lr*(grad(v) + lam*(v - w_global)), the
    proximal step of :func:`proximal_loss_gradient` with mu = lam.

    lam = 0 is exactly a plain local gradient step, i.e. personalization
    degenerates to training a separate local model.
    """
    if not (v.dim == local_grad_at_v.dim == w_global.dim):
        raise DimensionError(
            f"dim mismatch: v {v.dim}, grad {local_grad_at_v.dim}, w_global {w_global.dim}"
        )
    if not math.isfinite(lam) or lam < 0:
        raise ConfigError(f"lambda must be finite and >= 0, got {lam}")
    if not math.isfinite(lr) or lr <= 0:
        raise ConfigError(f"lr must be finite and > 0, got {lr}")
    step = _prox_grad_values(local_grad_at_v.values, v.values, w_global.values, lam)
    return ParameterVector(v.values - lr * step)
