import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedkit import (
    AlgorithmConfig,
    ClientDataset,
    ConfigError,
    DimensionError,
    DomainError,
    HeterogeneityConfig,
    NumericError,
    ParameterVector,
    TrainerConfig,
    dice_score,
    evaluate,
    federated_average,
    generate_site_data,
    local_gradient,
    local_train,
    train_local_only,
)
from fedkit.training import (
    IMAGE_SIDE,
    PIXEL_FEATURES,
    PIXELS,
    _BLOB_SIGMA,
    _INTENSITY_NOISE,
    _grad_values,
    ditto_personal_round,
    initial_global,
    metric_for,
    param_dim,
)


def least_squares_objective(w, X, y):
    r = X @ w - y
    return 0.5 * float(r @ r) / len(y)


# sha256 over features, targets and site_shift bytes of generate_site_data
# (shift_scale 0.5, site 3, seed 11): (task, noise_std, samples_per_site,
# fraction, role, digest). The random stream order is the data contract, so
# any change to how site data is drawn or computed shows up here.
GOLDEN_BASE_OPTIMUM = {"least_squares": (1.0, -2.0, 0.5), "synthetic_segmentation": (8.0, -4.0)}
GOLDEN_DIGESTS = [
    ("least_squares", 0.0, 6, 1.0, "train", "e05b62649d46aec4dd2a3d33c8668406bf894a50741a26708369056449ae0477"),
    ("least_squares", 0.0, 6, 1.0, "val", "a6f3d0bb2b4ea88b110bcbce119d18e520114791e690a0c0732d10aa1f55fb41"),
    ("least_squares", 0.0, 9, 0.5, "train", "cb8051ff79859428b16b9bf1c50cc67180035fe9804451b606e892fafd91b9bc"),
    ("least_squares", 0.0, 9, 0.5, "val", "03ad0a953bde5ff43f356eb0e8243b60d3805ec1698ddc7f91ff114335fc9016"),
    ("least_squares", 0.0, 1, 1.0, "train", "fd2ba928dfde3171c08486d3e8d78b44c131d038719365170ad01b2b76fe5445"),
    ("least_squares", 0.0, 1, 1.0, "val", "429e46310a9ebbed4c1a33de969e01adaa90fea6cd7bb42323707f91aee0a367"),
    ("least_squares", 1.0, 6, 1.0, "train", "747dd4c3a7737c15a57ddd5f333dfd33e894facd5266d5a8c7840179ab7e72ae"),
    ("least_squares", 1.0, 6, 1.0, "val", "a400c8589ca1d28e58f4205b6fa1faee2ee351d9b7ec0a3de82a9474f32ee67e"),
    ("least_squares", 1.0, 9, 0.5, "train", "7095b74f14f7790ae0fbd7639faa73e77136933dbb72486bd8cff6c3f1f6beaf"),
    ("least_squares", 1.0, 9, 0.5, "val", "82219e15e0451a5683bfcf0900b3e69e55789264e2f407b7907993f75865ce48"),
    ("least_squares", 1.0, 1, 1.0, "train", "d2677c41932c6e2d1ecb4bac96cd84b69def6962d77b9f2e2c74cdfebcd96c08"),
    ("least_squares", 1.0, 1, 1.0, "val", "e5a55696e3953657045a49ddb0d3b8ff8a6888484e29597a347bb994d592d83e"),
    ("synthetic_segmentation", 0.0, 6, 1.0, "train", "66eefc7ea9968017234b6b7f9d2ecbbad56a8f29df37aba413aa757a23aee562"),
    ("synthetic_segmentation", 0.0, 6, 1.0, "val", "6ccf4ebd6f0e7178bf510f13f93b6c598e4e954d26611b47c8768042ceea24f6"),
    ("synthetic_segmentation", 0.0, 9, 0.5, "train", "3eb28df6ac1ac025cc2887ae93dca6a8b379b9be177de923848910799c85fb84"),
    ("synthetic_segmentation", 0.0, 9, 0.5, "val", "150a257bc043b580bd3aeb40887bdc2e3bfabadc74fc258601ea3e6050bcc516"),
    ("synthetic_segmentation", 0.0, 1, 1.0, "train", "e3c61bc4e696a9ef2d679943cba1766fc7f71bc73338c5df4c6604dbf614765c"),
    ("synthetic_segmentation", 0.0, 1, 1.0, "val", "febd089eff8ccedcb4f895887237cbf8403e42f69e2d96098bc2cd5b993af1e4"),
    ("synthetic_segmentation", 1.0, 6, 1.0, "train", "1054f4eaf06930c2957738ecba92c22237d03f51de8a7a6918e566157df25ece"),
    ("synthetic_segmentation", 1.0, 6, 1.0, "val", "6e4e7a2c43efd83a28d2b2c3ddd6f54522f0a366193789232e6f44813346de92"),
    ("synthetic_segmentation", 1.0, 9, 0.5, "train", "4a107b3907b65c5cef205b6ca5e8575ae0286dc76ce6f8ad8039d19ed20aebc1"),
    ("synthetic_segmentation", 1.0, 9, 0.5, "val", "bf3e9daa89bfd83d4fec18b5d056d7025a3fab4143d394bc7125ae94927478f7"),
    ("synthetic_segmentation", 1.0, 1, 1.0, "train", "1fb7502654430f632c3a2cd10f8c8fef8d37e4223370ecfde652079f2ebe015b"),
    ("synthetic_segmentation", 1.0, 1, 1.0, "val", "15197850493dafda3fcffe57118bb4a17d9008433c2f79e051878c94f9150226"),
]


def reference_segmentation_data(hcfg, site_index, seed, role):
    """The segmentation draw written as four calls per image (two scalar
    ``integers(0, 8)`` draws for the blob center, then two 64-normal draws),
    with the per-site shift drawn as in ``site_shift``."""
    dim = len(hcfg.base_optimum)
    delta = np.zeros(dim)
    if hcfg.shift_scale != 0.0:
        shift_rng = np.random.default_rng([seed, site_index, 0])
        direction = shift_rng.standard_normal(dim)
        while np.linalg.norm(direction) < 1e-12:
            direction = shift_rng.standard_normal(dim)
        delta = direction / np.linalg.norm(direction) * hcfg.shift_scale
    w_eff = np.asarray(hcfg.base_optimum) + delta
    if role == "train":
        n, stream = max(1, int(hcfg.samples_per_site * hcfg.fraction)), 1
    else:
        n, stream = hcfg.samples_per_site, 2
    rng = np.random.default_rng([seed, site_index, stream])
    centers = np.empty((n, 2), dtype=np.int64)
    intensity_noise = np.empty((n, PIXELS))
    label_noise = np.empty((n, PIXELS)) if hcfg.noise_std > 0 else None
    for i in range(n):
        centers[i, 0] = rng.integers(0, IMAGE_SIDE)
        centers[i, 1] = rng.integers(0, IMAGE_SIDE)
        rng.standard_normal(out=intensity_noise[i])
        if label_noise is not None:
            rng.standard_normal(out=label_noise[i])
    rows = np.arange(IMAGE_SIDE)[None, :, None]
    cols = np.arange(IMAGE_SIDE)[None, None, :]
    dist2 = (rows - centers[:, 0, None, None]) ** 2 + (cols - centers[:, 1, None, None]) ** 2
    intensity = np.exp(-dist2 / (2.0 * _BLOB_SIGMA**2)).reshape(n, PIXELS)
    intensity += _INTENSITY_NOISE * intensity_noise
    logits = w_eff[0] * intensity + w_eff[1]
    if label_noise is not None:
        logits += hcfg.noise_std * label_noise
    targets = (logits > 0).astype(np.float64)
    features = np.ones((n, PIXELS, PIXEL_FEATURES))
    features[:, :, 0] = intensity
    return features.reshape(n, PIXELS * PIXEL_FEATURES), targets, delta


class TestConfigs:
    def test_lr_must_be_positive(self):
        with pytest.raises(ConfigError):
            TrainerConfig(lr=0.0)

    def test_local_steps_at_least_one(self):
        with pytest.raises(ConfigError):
            TrainerConfig(local_steps=0)

    def test_fraction_bounds(self):
        with pytest.raises(ConfigError):
            HeterogeneityConfig(base_optimum=[1.0], fraction=0.0)
        with pytest.raises(ConfigError):
            HeterogeneityConfig(base_optimum=[1.0], fraction=1.5)

    def test_param_dim(self):
        h = HeterogeneityConfig(base_optimum=[1.0, 2.0, 3.0])
        assert param_dim(TrainerConfig(), h) == 3
        h2 = HeterogeneityConfig(base_optimum=[8.0, -4.0])
        assert param_dim(TrainerConfig(trainer="synthetic_segmentation"), h2) == 2

    def test_segmentation_needs_two_features(self):
        h = HeterogeneityConfig(base_optimum=[1.0, 2.0, 3.0])
        with pytest.raises(ConfigError):
            param_dim(TrainerConfig(trainer="synthetic_segmentation"), h)


class TestGenerateSiteData:
    def test_iid_degenerate_case(self):
        # shift 0, noise 0: every site's data is exactly consistent with w*
        h = HeterogeneityConfig(base_optimum=[1.0, -2.0], shift_scale=0.0, noise_std=0.0,
                                samples_per_site=10)
        for site in range(3):
            data = generate_site_data(h, site, seed=5)
            assert np.allclose(data.features @ np.array([1.0, -2.0]), data.targets, atol=0)
            assert np.all(data.site_shift == 0)

    def test_fraction_row_arithmetic(self):
        h = HeterogeneityConfig(base_optimum=[1.0], samples_per_site=24, fraction=0.5)
        assert generate_site_data(h, 0, seed=0).n_samples == 12
        # validation draws ignore the fraction
        assert generate_site_data(h, 0, seed=0, role="val").n_samples == 24

    def test_fraction_floors_to_minimum_one(self):
        h = HeterogeneityConfig(base_optimum=[1.0], samples_per_site=3, fraction=0.1)
        assert generate_site_data(h, 0, seed=0).n_samples == 1

    def test_determinism(self):
        h = HeterogeneityConfig(base_optimum=[0.5, 0.5], shift_scale=0.3, noise_std=0.2,
                                samples_per_site=16)
        a = generate_site_data(h, 2, seed=9)
        b = generate_site_data(h, 2, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.site_shift, b.site_shift)

    def test_sites_differ_and_shift_norm_is_exact_scale(self):
        h = HeterogeneityConfig(base_optimum=[0.5, 0.5, 0.5], shift_scale=0.7,
                                samples_per_site=8)
        d0 = generate_site_data(h, 0, seed=1)
        d1 = generate_site_data(h, 1, seed=1)
        assert not np.array_equal(d0.features, d1.features)
        assert np.isclose(np.linalg.norm(d0.site_shift), 0.7, rtol=1e-12)
        assert np.isclose(np.linalg.norm(d1.site_shift), 0.7, rtol=1e-12)
        # train and val share the same site shift
        assert np.array_equal(d0.site_shift, generate_site_data(h, 0, seed=1, role="val").site_shift)

    def test_segmentation_shapes_and_binary_masks(self):
        h = HeterogeneityConfig(base_optimum=[8.0, -4.0], samples_per_site=6)
        data = generate_site_data(h, 0, seed=3, task="synthetic_segmentation")
        assert data.features.shape == (6, PIXELS * 2)
        assert data.targets.shape == (6, PIXELS)
        assert set(np.unique(data.targets)) <= {0.0, 1.0}
        # blobs produce at least one labeled pixel somewhere
        assert data.targets.sum() > 0

    @pytest.mark.parametrize("task, noise, samples, fraction, role, digest", GOLDEN_DIGESTS)
    def test_golden_bytes(self, task, noise, samples, fraction, role, digest):
        h = HeterogeneityConfig(base_optimum=GOLDEN_BASE_OPTIMUM[task], shift_scale=0.5,
                                noise_std=noise, samples_per_site=samples, fraction=fraction)
        data = generate_site_data(h, 3, seed=11, task=task, role=role)
        raw = data.features.tobytes() + data.targets.tobytes() + data.site_shift.tobytes()
        assert hashlib.sha256(raw).hexdigest() == digest


class TestSegmentationDrawMatchesFourCallReference:
    def test_default_generator_is_pcg64(self):
        # generate_site_data reads the blob center from one raw 64-bit word,
        # which equals two integers(0, 8) draws only because PCG64 serves a
        # 32-bit draw as the low half of a fresh word and buffers the high
        # half. Another bit generator would change the site data.
        assert type(np.random.default_rng(0).bit_generator) is np.random.PCG64

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**63),
        site=st.integers(0, 10_000),
        samples=st.integers(1, 64),
        fraction=st.floats(0.01, 1.0),
        noise=st.one_of(st.just(0.0), st.floats(1e-3, 3.0)),
        shift=st.one_of(st.just(0.0), st.floats(1e-3, 2.0)),
        base=st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)),
        role=st.sampled_from(["train", "val"]),
    )
    def test_byte_equal(self, seed, site, samples, fraction, noise, shift, base, role):
        h = HeterogeneityConfig(base_optimum=base, shift_scale=shift, noise_std=noise,
                                samples_per_site=samples, fraction=fraction)
        data = generate_site_data(h, site, seed, task="synthetic_segmentation", role=role)
        features, targets, delta = reference_segmentation_data(h, site, seed, role)
        assert data.features.tobytes() == features.tobytes()
        assert data.targets.tobytes() == targets.tobytes()
        assert data.site_shift.tobytes() == delta.tobytes()


class TestLocalTrain:
    def test_one_step_matches_hand_computed_gradient(self):
        # 3-sample dataset, by hand: X = [[1,0],[0,1],[1,1]], y = [1,2,3]
        # residual at w=0 is [-1,-2,-3]; grad = X^T r / 3 = [-4/3, -5/3]
        X = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        y = np.array([1.0, 2.0, 3.0])
        from fedkit import ClientDataset

        data = ClientDataset(X, y, np.zeros(2))
        tcfg = TrainerConfig(lr=0.3, local_steps=1)
        start = ParameterVector([0.0, 0.0])
        out = local_train(start, data, tcfg, AlgorithmConfig(), start)
        expected = np.zeros(2) - 0.3 * (np.array([-4.0, -5.0]) / 3.0)
        assert np.array_equal(out.params.values, expected)
        assert out.sample_count == 3

    def test_converges_to_generating_optimum(self):
        w_star = [1.0, -2.0, 0.5]
        h = HeterogeneityConfig(base_optimum=w_star, shift_scale=0.0, noise_std=0.0,
                                samples_per_site=50)
        data = generate_site_data(h, 0, seed=21)
        tcfg = TrainerConfig(lr=0.1, local_steps=400)
        out = local_train(initial_global(tcfg, h), data, tcfg, AlgorithmConfig(),
                          initial_global(tcfg, h))
        assert np.allclose(out.params.values, w_star, atol=1e-6)

    def test_divergence_reports_step(self):
        h = HeterogeneityConfig(base_optimum=[1.0, 1.0], samples_per_site=20)
        data = generate_site_data(h, 0, seed=2)
        tcfg = TrainerConfig(lr=1e8, local_steps=80)
        start = initial_global(tcfg, h)
        with pytest.raises(NumericError, match="step"):
            local_train(start, data, tcfg, AlgorithmConfig(), start)

    def test_dimension_mismatch(self):
        h = HeterogeneityConfig(base_optimum=[1.0, 1.0], samples_per_site=5)
        data = generate_site_data(h, 0, seed=2)
        tcfg = TrainerConfig()
        with pytest.raises(DimensionError):
            local_train(ParameterVector([1.0]), data, tcfg, AlgorithmConfig(), ParameterVector([1.0]))

    def test_fedprox_mu_zero_is_bitwise_fedavg(self):
        h = HeterogeneityConfig(base_optimum=[1.0, -1.0, 2.0], shift_scale=0.2, noise_std=0.3,
                                samples_per_site=12)
        data = generate_site_data(h, 0, seed=4)
        tcfg = TrainerConfig(lr=0.05, local_steps=7)
        start = ParameterVector([0.5, 0.5, 0.5])
        wg = ParameterVector([-0.1, 0.2, 0.0])
        plain = local_train(start, data, tcfg, AlgorithmConfig(kind="fedavg"), wg)
        prox0 = local_train(start, data, tcfg, AlgorithmConfig(kind="fedprox", prox_mu=0.0), wg)
        assert plain.params == prox0.params

    def test_fedprox_pulls_toward_global(self):
        h = HeterogeneityConfig(base_optimum=[2.0, 2.0], noise_std=0.0, samples_per_site=30)
        data = generate_site_data(h, 0, seed=8)
        tcfg = TrainerConfig(lr=0.1, local_steps=300)
        start = ParameterVector([0.0, 0.0])
        wg = ParameterVector([0.0, 0.0])
        free = local_train(start, data, tcfg, AlgorithmConfig(kind="fedavg"), wg)
        constrained = local_train(start, data, tcfg, AlgorithmConfig(kind="fedprox", prox_mu=5.0), wg)
        assert np.linalg.norm(constrained.params.values) < np.linalg.norm(free.params.values)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        h = HeterogeneityConfig(base_optimum=rng.standard_normal(6).tolist(), shift_scale=0.5,
                                noise_std=0.4, samples_per_site=20)
        data = generate_site_data(h, 1, seed=12)
        tcfg = TrainerConfig()
        for trial in range(5):
            w = rng.standard_normal(6)
            grad = local_gradient(ParameterVector(w), data, tcfg).values
            step = 1e-6
            for j in range(6):
                e = np.zeros(6)
                e[j] = step
                fd = (
                    least_squares_objective(w + e, data.features, data.targets)
                    - least_squares_objective(w - e, data.features, data.targets)
                ) / (2 * step)
                assert abs(fd - grad[j]) <= 1e-5 * max(1.0, abs(grad[j]))

    def test_segmentation_gradient_is_the_textbook_formula_bitwise(self):
        h = HeterogeneityConfig(base_optimum=[8.0, -4.0], shift_scale=0.5, noise_std=0.3,
                                samples_per_site=9)
        data = generate_site_data(h, 1, seed=4, task="synthetic_segmentation")
        tcfg = TrainerConfig(trainer="synthetic_segmentation")
        x, y = data.features.reshape(-1, 2), data.targets.reshape(-1)
        with np.errstate(over="ignore"):
            for w in ([0.0, 0.0], [3.0, -1.5], [-0.25, 7.0], [800.0, -900.0]):
                w = np.array(w)
                textbook = x.T @ (1.0 / (1.0 + np.exp(-(x @ w))) - y) / y.size
                assert _grad_values(w, data, tcfg).tobytes() == textbook.tobytes()


class TestOneStepEquivalence:
    def test_fedavg_single_step_equals_centralized_gd(self):
        # Oracle: gradient descent on the mean of the per-site objectives,
        # computed with its own numpy expressions.
        sites, rounds, lr = 3, 50, 0.1
        h = HeterogeneityConfig(base_optimum=[1.0, -0.5, 2.0, 0.0], shift_scale=0.5,
                                noise_std=0.3, samples_per_site=20)
        tcfg = TrainerConfig(lr=lr, local_steps=1)
        datasets = [generate_site_data(h, i, seed=33) for i in range(sites)]
        acfg = AlgorithmConfig()
        w_fed = initial_global(tcfg, h)
        w_oracle = np.zeros(4)
        for r in range(rounds):
            updates = [
                local_train(w_fed, d, tcfg, acfg, w_fed, client_id=f"s{i}", round_index=r)
                for i, d in enumerate(datasets)
            ]
            w_fed = federated_average(updates, "uniform")
            grads = [d.features.T @ (d.features @ w_oracle - d.targets) / d.n_samples for d in datasets]
            w_oracle = w_oracle - lr * np.mean(grads, axis=0)
            assert np.allclose(w_fed.values, w_oracle, atol=1e-9, rtol=0)


class TestDittoPersonalRound:
    def test_lambda_zero_equals_local_training_bitwise(self):
        h = HeterogeneityConfig(base_optimum=[1.0, 2.0], shift_scale=0.3, noise_std=0.2,
                                samples_per_site=15)
        data = generate_site_data(h, 0, seed=6)
        tcfg = TrainerConfig(lr=0.08, local_steps=3)
        start = ParameterVector([0.2, -0.2])
        v = start
        for _ in range(10):
            v = ditto_personal_round(v, data, tcfg, ParameterVector([9.0, 9.0]), 0.0)
        assert v == train_local_only(start, data, tcfg, rounds=10)


class TestEvaluate:
    def test_exact_optimum_gives_zero_loss(self):
        h = HeterogeneityConfig(base_optimum=[1.5, -0.5], shift_scale=0.0, noise_std=0.0,
                                samples_per_site=12)
        data = generate_site_data(h, 0, seed=14)
        score = evaluate(ParameterVector([1.5, -0.5]), data, "mse_loss")
        assert score.mean == 0.0
        assert score.metric == "mse_loss"

    def test_zero_params_dice_below_one(self):
        h = HeterogeneityConfig(base_optimum=[8.0, -4.0], samples_per_site=10)
        data = generate_site_data(h, 0, seed=14, task="synthetic_segmentation")
        score = evaluate(ParameterVector([0.0, 0.0]), data, "dice")
        assert score.metric == "dice"
        assert score.mean < 1.0

    def test_good_segmentation_params_score_high(self):
        h = HeterogeneityConfig(base_optimum=[8.0, -4.0], samples_per_site=10)
        data = generate_site_data(h, 0, seed=14, task="synthetic_segmentation")
        score = evaluate(ParameterVector([8.0, -4.0]), data, "dice")
        assert score.mean > 0.9

    def test_evaluate_is_deterministic(self):
        h = HeterogeneityConfig(base_optimum=[1.0, 1.0], noise_std=0.1, samples_per_site=9)
        data = generate_site_data(h, 0, seed=15)
        p = ParameterVector([0.3, 0.4])
        assert evaluate(p, data, "mse_loss") == evaluate(p, data, "mse_loss")

    def test_metric_mismatch(self):
        h = HeterogeneityConfig(base_optimum=[1.0, 1.0], samples_per_site=5)
        data = generate_site_data(h, 0, seed=2)
        with pytest.raises(ConfigError):
            evaluate(ParameterVector([1.0, 1.0]), data, "dice")

    def test_dice_equals_per_image_dice_score_bitwise(self):
        # The vectorized Dice must score each image exactly as dice_score does.
        h = HeterogeneityConfig(base_optimum=[4.0, -2.0], shift_scale=0.5, noise_std=0.3,
                                samples_per_site=16)
        data = generate_site_data(h, 2, seed=21, task="synthetic_segmentation", role="val")
        # Image 0 gets two empty masks (w = [0, -1] predicts nothing); image 1
        # only an empty truth mask.
        targets = data.targets.copy()
        targets[0:2] = 0.0
        data = ClientDataset(data.features, targets, data.site_shift)
        for w in ([0.0, -1.0], [4.0, -2.0], [0.0, 0.0], [1.0, -0.4], [-3.0, 1.0]):
            params = ParameterVector(w)
            x = data.features.reshape(data.n_samples, PIXELS, 2)
            predictions = (x @ params.values > 0).astype(np.float64)
            scores = np.array([dice_score(predictions[i], targets[i])
                               for i in range(data.n_samples)])
            got = evaluate(params, data, "dice")
            assert (got.mean, got.std) == (float(scores.mean()), float(scores.std()))
        assert dice_score(np.zeros(PIXELS), targets[0]) == 1.0

    def test_dice_rejects_non_binary_target(self):
        h = HeterogeneityConfig(base_optimum=[4.0, -2.0], samples_per_site=4)
        data = generate_site_data(h, 0, seed=3, task="synthetic_segmentation")
        targets = data.targets.copy()
        targets[3, 7] = 0.5
        data = ClientDataset(data.features, targets, data.site_shift)
        with pytest.raises(DomainError, match="non-binary"):
            evaluate(ParameterVector([4.0, -2.0]), data, "dice")

    def test_metric_for(self):
        assert metric_for(TrainerConfig()) == "mse_loss"
        assert metric_for(TrainerConfig(trainer="synthetic_segmentation")) == "dice"


class TestSegmentationTraining:
    def test_logistic_training_improves_dice(self):
        h = HeterogeneityConfig(base_optimum=[8.0, -4.0], shift_scale=0.5, noise_std=0.2,
                                samples_per_site=12)
        data = generate_site_data(h, 0, seed=17, task="synthetic_segmentation")
        tcfg = TrainerConfig(trainer="synthetic_segmentation", lr=1.0, local_steps=200)
        start = ParameterVector([0.0, 0.0])
        before = evaluate(start, data, "dice").mean
        out = local_train(start, data, tcfg, AlgorithmConfig(), start)
        after = evaluate(out.params, data, "dice").mean
        assert after > before
        assert after > 0.8


class TestPooledDominance:
    def test_global_beats_locals_on_pooled_validation(self):
        # Undersampled locals (12 rows, 16 dims) carry unlearned optimum
        # mass; the pooled federation is identified. shift_scale > 0.
        rng = np.random.default_rng(42)
        h = HeterogeneityConfig(base_optimum=rng.standard_normal(16).tolist(), shift_scale=0.4,
                                noise_std=0.5, samples_per_site=48, fraction=0.25)
        tcfg = TrainerConfig(lr=0.1, local_steps=1)
        datasets = [generate_site_data(h, i, seed=0) for i in range(3)]
        acfg = AlgorithmConfig()
        w = initial_global(tcfg, h)
        for r in range(400):
            ups = [
                local_train(w, d, tcfg, acfg, w, client_id=f"s{i}", round_index=r)
                for i, d in enumerate(datasets)
            ]
            w = federated_average(ups)
        vals = [generate_site_data(h, i, seed=0, role="val") for i in range(3)]
        pooled_global = np.mean([evaluate(w, v, "mse_loss").mean for v in vals])
        for t, d in enumerate(datasets):
            local_model = train_local_only(initial_global(tcfg, h), d, tcfg, 400)
            pooled_local = np.mean([evaluate(local_model, v, "mse_loss").mean for v in vals])
            assert pooled_global <= pooled_local
