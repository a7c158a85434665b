"""Pluggable local trainers and the non-IID synthetic data generator.

Two desk-scale tasks stand in for the heavyweight imaging workloads:

* ``least_squares``: linear regression toward a per-site optimum
  ``w* + delta_i``. The per-site shift ``delta_i`` is the heterogeneity
  knob: drawn once per site with direction uniform on the sphere and norm
  exactly ``shift_scale``.
* ``synthetic_segmentation``: per-pixel logistic regression on 8x8 images
  containing one randomly placed bright blob; scored with the Dice overlap
  per image. The per-site shift perturbs the labeling rule, playing the
  role of site-specific annotation guidelines.

Site data is a pure function of (seed, site index, train or val), and the
order of draws from each site's random stream is part of that contract.
A segmentation draw takes, per image and in image order, the blob center
(row, then column), then the 64 intensity-noise normals, then the 64
label-noise normals (only when ``noise_std > 0``); a least-squares draw
takes the feature matrix, then the target noise. The per-site shift comes
from a separate stream. An image's center comes from one raw PCG64 word
and its normals from one draw, with the same result: ``integers(0, 8)``
keeps the top 3 bits of a 32-bit draw (Lemire's method never rejects for
a power of two), PCG64 serves that draw from the low half of a fresh word
and buffers the high half, and normals skip the buffer. So the row is
bits 29-31 of the word and the column bits 61-63.

Training is full-batch, deterministic gradient descent only; every
equivalence property in the test suite relies on exact oracle comparison,
which stochastic minibatching would turn into statistical tolerances.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import default_rng

from .aggregation import AlgorithmConfig, _ditto_step_values, _prox_grad_values
from .errors import ConfigError, DimensionError, DomainError, NumericError
from .params import EvalScore, ModelUpdate, ParameterVector, all_finite

TRAINER_KINDS = ("least_squares", "synthetic_segmentation")

IMAGE_SIDE = 8
PIXELS = IMAGE_SIDE * IMAGE_SIDE
PIXEL_FEATURES = 2  # [intensity, bias]
_BLOB_SIGMA = 1.5
_INTENSITY_NOISE = 0.05

# rng stream tags so the per-site shift is shared by train and val draws
_STREAM_SHIFT = 0
_STREAM_TRAIN = 1
_STREAM_VAL = 2


@dataclass(frozen=True)
class TrainerConfig:
    """Local training hyperparameters. ``seed`` also seeds site data generation."""

    trainer: str = "least_squares"
    lr: float = 0.1
    local_steps: int = 1
    batch: str = "full"
    seed: int = 0

    def __post_init__(self):
        if self.trainer not in TRAINER_KINDS:
            raise ConfigError(f"trainer must be one of {TRAINER_KINDS}, got {self.trainer!r}")
        if not math.isfinite(self.lr) or self.lr <= 0:
            raise ConfigError(f"lr must be finite and > 0, got {self.lr}")
        if self.local_steps < 1:
            raise ConfigError(f"local_steps must be >= 1, got {self.local_steps}")
        if self.batch != "full":
            raise ConfigError(f"batch must be 'full' (the only mode supported), got {self.batch!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")


@dataclass(frozen=True)
class HeterogeneityConfig:
    """Controls how far apart the sites' data distributions sit.

    ``fraction`` scales the per-site training-set size (the client
    data-quantity experiment); validation sets always use the full
    ``samples_per_site``.
    """

    base_optimum: tuple[float, ...]
    shift_scale: float = 0.0
    noise_std: float = 0.0
    samples_per_site: int = 32
    fraction: float = 1.0

    def __post_init__(self):
        base = tuple(float(v) for v in self.base_optimum)
        if len(base) == 0:
            raise ConfigError("base_optimum must be non-empty")
        if not all(math.isfinite(v) for v in base):
            raise ConfigError("base_optimum must be finite")
        object.__setattr__(self, "base_optimum", base)
        if not math.isfinite(self.shift_scale) or self.shift_scale < 0:
            raise ConfigError(f"shift_scale must be finite and >= 0, got {self.shift_scale}")
        if not math.isfinite(self.noise_std) or self.noise_std < 0:
            raise ConfigError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if self.samples_per_site < 1:
            raise ConfigError(f"samples_per_site must be >= 1, got {self.samples_per_site}")
        if not math.isfinite(self.fraction) or not 0.0 < self.fraction <= 1.0:
            raise ConfigError(f"fraction must lie in (0, 1], got {self.fraction}")


@dataclass(frozen=True, eq=False)
class ClientDataset:
    """One site's data: feature rows, targets, and the site's optimum shift.

    least_squares: features (n, d), targets (n,).
    synthetic_segmentation: features (n, 128), per image 64 pixels times
    [intensity, bias] in row-major order; targets (n, 64) binary masks.
    """

    features: np.ndarray
    targets: np.ndarray
    site_shift: np.ndarray

    def __post_init__(self):
        feats = _readonly(np.asarray(self.features, dtype=np.float64))
        targs = _readonly(np.asarray(self.targets, dtype=np.float64))
        shift = _readonly(np.asarray(self.site_shift, dtype=np.float64))
        if feats.ndim != 2 or feats.shape[0] < 1:
            raise ConfigError(f"features must be a non-empty 2-D matrix, got shape {feats.shape}")
        if targs.shape[0] != feats.shape[0]:
            raise ConfigError(
                f"row count mismatch: {feats.shape[0]} feature rows vs {targs.shape[0]} targets"
            )
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "targets", targs)
        object.__setattr__(self, "site_shift", shift)

    @property
    def n_samples(self) -> int:
        return int(self.features.shape[0])


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def param_dim(tcfg: TrainerConfig, hcfg: HeterogeneityConfig) -> int:
    """Dimension of the trainer's parameter vector."""
    if tcfg.trainer == "least_squares":
        return len(hcfg.base_optimum)
    if len(hcfg.base_optimum) != PIXEL_FEATURES:
        raise ConfigError(
            f"synthetic_segmentation uses {PIXEL_FEATURES} per-pixel features; "
            f"base_optimum has {len(hcfg.base_optimum)}"
        )
    return PIXEL_FEATURES


def initial_global(tcfg: TrainerConfig, hcfg: HeterogeneityConfig) -> ParameterVector:
    """The deterministic round-0 global model (all zeros)."""
    return ParameterVector.zeros(param_dim(tcfg, hcfg))


def site_shift(hcfg: HeterogeneityConfig, site_index: int, seed: int) -> np.ndarray:
    """The site's optimum offset delta_i: fixed direction, norm shift_scale."""
    dim = len(hcfg.base_optimum)
    if hcfg.shift_scale == 0.0:
        return np.zeros(dim)
    rng = default_rng([seed, site_index, _STREAM_SHIFT])
    direction = rng.standard_normal(dim)
    norm = np.linalg.norm(direction)
    while norm < 1e-12:  # essentially impossible, but keep the contract total
        direction = rng.standard_normal(dim)
        norm = np.linalg.norm(direction)
    return direction / norm * hcfg.shift_scale


def _train_rows(hcfg: HeterogeneityConfig) -> int:
    return max(1, int(hcfg.samples_per_site * hcfg.fraction))


def generate_site_data(
    hcfg: HeterogeneityConfig,
    site_index: int,
    seed: int,
    task: str = "least_squares",
    role: str = "train",
) -> ClientDataset:
    """Deterministically generate one site's dataset.

    ``role`` selects the train or validation draw; both share the same
    site shift but use independent random streams. ``fraction`` applies to
    the training draw only.
    """
    if task not in TRAINER_KINDS:
        raise ConfigError(f"unknown task {task!r}; expected one of {TRAINER_KINDS}")
    if role not in ("train", "val"):
        raise ConfigError(f"unknown role {role!r}; expected 'train' or 'val'")
    stream = _STREAM_TRAIN if role == "train" else _STREAM_VAL
    n = _train_rows(hcfg) if role == "train" else hcfg.samples_per_site
    delta = site_shift(hcfg, site_index, seed)
    w_eff = np.asarray(hcfg.base_optimum) + delta
    rng = default_rng([seed, site_index, stream])
    if task == "least_squares":
        dim = len(hcfg.base_optimum)
        features = rng.standard_normal((n, dim))
        targets = features @ w_eff
        if hcfg.noise_std > 0:
            targets = targets + hcfg.noise_std * rng.standard_normal(n)
        return ClientDataset(features, targets, delta)
    if len(w_eff) != PIXEL_FEATURES:
        raise ConfigError(
            f"synthetic_segmentation needs a {PIXEL_FEATURES}-element base_optimum, got {len(w_eff)}"
        )
    # The draws stay per image, in stream order; the pixel math runs on all
    # images at once with the same elementwise operations.
    words = np.empty(n, dtype=np.uint64)
    normals = np.empty((n, 2 * PIXELS if hcfg.noise_std > 0 else PIXELS))
    random_raw = rng.bit_generator.random_raw
    for i in range(n):
        words[i] = random_raw()
        rng.standard_normal(out=normals[i])
    center_rows = ((words & 0xFFFFFFFF) >> 29).astype(np.int64)
    center_cols = (words >> 61).astype(np.int64)
    rows = np.arange(IMAGE_SIDE)[None, :, None]
    cols = np.arange(IMAGE_SIDE)[None, None, :]
    dist2 = (rows - center_rows[:, None, None]) ** 2 + (cols - center_cols[:, None, None]) ** 2
    intensity = np.exp(-dist2 / (2.0 * _BLOB_SIGMA**2)).reshape(n, PIXELS)
    intensity += _INTENSITY_NOISE * normals[:, :PIXELS]
    logits = w_eff[0] * intensity + w_eff[1]
    if hcfg.noise_std > 0:
        logits += hcfg.noise_std * normals[:, PIXELS:]
    targets = (logits > 0).astype(np.float64)
    features = np.ones((n, PIXELS, PIXEL_FEATURES))
    features[:, :, 0] = intensity
    return ClientDataset(features.reshape(n, PIXELS * PIXEL_FEATURES), targets, delta)


def _grad_values(w: np.ndarray, data: ClientDataset, tcfg: TrainerConfig) -> np.ndarray:
    # ndarray.dot makes the same BLAS call as @ with less dispatch, so the
    # products are bit-identical; this kernel runs local_steps times a round.
    if tcfg.trainer == "least_squares":
        x, y = data.features, data.targets
        residual = x.dot(w) - y
        return x.T.dot(residual) / y.size
    x, y = data.features.reshape(-1, PIXEL_FEATURES), data.targets.reshape(-1)
    # sigmoid(x @ w) - y, in place in the product's buffer
    r = x.dot(w)
    np.negative(r, out=r)
    np.exp(r, out=r)
    r += 1.0
    np.reciprocal(r, out=r)
    r -= y
    return x.T.dot(r) / y.size


def _check_dims(start: ParameterVector, data: ClientDataset, tcfg: TrainerConfig) -> None:
    if tcfg.trainer == "least_squares":
        want = data.features.shape[1]
    else:
        if data.features.shape[1] != PIXELS * PIXEL_FEATURES:
            raise DimensionError(
                f"segmentation features must have {PIXELS * PIXEL_FEATURES} columns, "
                f"got {data.features.shape[1]}"
            )
        want = PIXEL_FEATURES
    if start.dim != want:
        raise DimensionError(f"parameter dim {start.dim} does not match trainer dim {want}")


def local_gradient(w: ParameterVector, data: ClientDataset, tcfg: TrainerConfig) -> ParameterVector:
    """Full-batch gradient of the trainer's local objective at ``w``.

    least_squares: mean squared residual / 2, i.e. grad = X^T (Xw - y) / n.
    synthetic_segmentation: mean per-pixel logistic loss.
    """
    _check_dims(w, data, tcfg)
    return ParameterVector(_grad_values(w.values, data, tcfg))


def local_train(
    start: ParameterVector,
    data: ClientDataset,
    tcfg: TrainerConfig,
    acfg: AlgorithmConfig,
    w_global: ParameterVector,
    *,
    client_id: str = "",
    round_index: int = 0,
) -> ModelUpdate:
    """Run ``local_steps`` full-batch gradient steps from ``start``.

    The gradient routes through the proximal adjustment when the algorithm
    is fedprox; fedavg and the ditto global track take the plain gradient.
    ``train_seconds`` is left at 0.0; timing is the runtime's concern.
    """
    _check_dims(start, data, tcfg)
    if w_global.dim != start.dim:
        raise DimensionError(f"w_global dim {w_global.dim} does not match start dim {start.dim}")
    w = start.values.copy()
    wg = w_global.values
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(tcfg.local_steps):
            g = _grad_values(w, data, tcfg)
            if acfg.kind == "fedprox":
                g = _prox_grad_values(g, w, wg, acfg.prox_mu)
            w = w - tcfg.lr * g
            if not all_finite(w):
                raise NumericError(f"training diverged: non-finite parameters at step {step}")
    return ModelUpdate(
        client_id=client_id,
        round=round_index,
        params=ParameterVector(w),
        sample_count=data.n_samples,
        train_seconds=0.0,
    )


def ditto_personal_round(
    v: ParameterVector,
    data: ClientDataset,
    tcfg: TrainerConfig,
    w_global: ParameterVector,
    lam: float,
) -> ParameterVector:
    """One round of the personal track: ``local_steps`` regularized steps on v.

    With lam = 0 this is bit-identical to ``local_train``'s plain steps, so
    the personal track reduces exactly to separate local training.
    """
    _check_dims(v, data, tcfg)
    out = v.values.copy()
    wg = w_global.values
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(tcfg.local_steps):
            g = _grad_values(out, data, tcfg)
            out = _ditto_step_values(out, g, wg, lam, tcfg.lr)
            if not all_finite(out):
                raise NumericError(f"personal track diverged: non-finite parameters at step {step}")
    return ParameterVector(out)


def train_local_only(
    start: ParameterVector,
    data: ClientDataset,
    tcfg: TrainerConfig,
    rounds: int,
) -> ParameterVector:
    """Train on one site alone for rounds * local_steps plain gradient steps.

    The single-site baseline for the global-vs-local comparison, and the
    oracle for the lambda = 0 personalization reduction.
    """
    acfg = AlgorithmConfig(kind="fedavg")
    params = start
    for r in range(rounds):
        params = local_train(params, data, tcfg, acfg, params, round_index=r).params
    return params


def evaluate(params: ParameterVector, data: ClientDataset, metric: str) -> EvalScore:
    """Score ``params`` on a dataset: per-sample MSE or per-image Dice."""
    if metric == "mse_loss":
        if data.targets.ndim != 1:
            raise ConfigError("mse_loss expects regression data (1-D targets)")
        if params.dim != data.features.shape[1]:
            raise DimensionError(
                f"parameter dim {params.dim} does not match feature dim {data.features.shape[1]}"
            )
        errors = (data.features @ params.values - data.targets) ** 2
        return EvalScore(mean=float(errors.mean()), std=float(errors.std()), metric="mse_loss")
    if metric == "dice":
        if data.targets.ndim != 2 or data.targets.shape[1] != PIXELS:
            raise ConfigError("dice expects segmentation data (per-image masks)")
        if params.dim != PIXEL_FEATURES:
            raise DimensionError(f"parameter dim {params.dim} does not match trainer dim {PIXEL_FEATURES}")
        x = data.features.reshape(data.n_samples, PIXELS, PIXEL_FEATURES)
        targets = data.targets
        if not ((targets == 0) | (targets == 1)).all():
            raise DomainError("truth mask contains non-binary entries")
        # dice_score of each image at once: 2*|A∩B| / (|A|+|B|), and 1.0 for
        # two empty masks. Pixel counts are small integers, exact as floats.
        predicted = (x @ params.values > 0).astype(np.float64)  # sigmoid(z) > 0.5 iff z > 0
        ones = np.ones(PIXELS)
        sizes = (predicted + targets) @ ones
        intersections = (predicted * targets) @ ones
        scores = np.where(sizes > 0, 2 * intersections / np.maximum(sizes, 1.0), 1.0)
        return EvalScore(mean=float(scores.mean()), std=float(scores.std()), metric="dice")
    raise ConfigError(f"unknown metric {metric!r}")


def metric_for(tcfg: TrainerConfig) -> str:
    """The natural evaluation metric of a trainer."""
    return "mse_loss" if tcfg.trainer == "least_squares" else "dice"

