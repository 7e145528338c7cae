"""Tests for synthetic data generators, training modes, and the sweep reports."""

import math
import re
import tracemalloc
from collections import Counter
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from orbitcanon import audit as audit_module
from orbitcanon.audit import (
    CANON_MODES,
    GRID_STEPS_3D,
    MODES,
    SCALE_FACTORS,
    SWEEP_CHUNK_FLOATS,
    AuditReport,
    LabeledDataset,
    LinearSoftmaxModel,
    TrainConfig,
    evaluate_rotation_grid_3d,
    evaluate_rotation_sweep_2d,
    evaluate_scale_sweep,
    featurize,
    gen_synthetic_clouds,
    gen_synthetic_images,
    rotation_about,
    rotation_grid_3d,
    softmax_curve,
    train_classifier,
)
from orbitcanon.cli import run
from orbitcanon.cloud import DegenerateCloudError, canonicalize_similarity
from orbitcanon.formats import ReportDocument, save_dataset, save_model, write_report
from orbitcanon.image import GRADIENT_THRESHOLD, GrayImage, canonicalize_images, rotate_image

CLOUD_CLASSES = ("shell", "box", "tube", "cross")


def _feature_count(data):
    return int(data.inputs[0].size)


def _constant_model(data, favored=0):
    """Zero weights plus a bias spike: predicts one class everywhere."""
    n_classes = len(data.class_names)
    bias = np.zeros(n_classes)
    bias[favored] = 1.0
    return LinearSoftmaxModel(weights=np.zeros((n_classes, _feature_count(data))),
                              bias=bias, kind=data.kind)


class TestGenSyntheticClouds:
    def test_shapes_and_labels(self):
        data = gen_synthetic_clouds(seed=1, n_per_class=2)
        assert data.kind == "cloud"
        assert len(data.samples) == 8
        assert data.class_names == CLOUD_CLASSES
        for cloud, label in data.samples:
            assert cloud.shape == (64, 3)
            assert 0 <= label <= 3
        counts = np.bincount(data.labels(), minlength=4)
        np.testing.assert_array_equal(counts, [2, 2, 2, 2])

    def test_deterministic(self):
        a = gen_synthetic_clouds(seed=3, n_per_class=3)
        b = gen_synthetic_clouds(seed=3, n_per_class=3)
        for (xa, la), (xb, lb) in zip(a.samples, b.samples):
            assert la == lb
            np.testing.assert_array_equal(xa, xb)

    def test_seed_changes_data(self):
        a = gen_synthetic_clouds(seed=3, n_per_class=1)
        b = gen_synthetic_clouds(seed=4, n_per_class=1)
        assert not np.array_equal(a.samples[0][0], b.samples[0][0])

    def test_shell_class_eigen_spread(self):
        """The stretch keeps even the roundest class PCA-decidable: relative
        eigenvalue gaps at least 5% on 100 shell samples."""
        data = gen_synthetic_clouds(seed=11, n_per_class=100)
        shells = [x for x, label in data.samples if label == 0]
        assert len(shells) == 100
        for cloud in shells:
            _, frame = canonicalize_similarity(cloud)
            assert not frame.degenerate
            w = frame.singular_values ** 2
            gaps = (w[:-1] - w[1:]) / w[0]
            assert gaps.min() >= 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_synthetic_clouds(seed=0, n_per_class=0)
        with pytest.raises(ValueError):
            gen_synthetic_clouds(seed=0, n_per_class=1, n_points=4)


class TestGenSyntheticImages:
    def test_shapes_and_labels(self):
        data = gen_synthetic_images(seed=1, n_per_class=3)
        assert data.kind == "image"
        assert len(data.samples) == 12
        for img, label in data.samples:
            assert img.shape == (32, 32)
            assert 0 <= label <= 3

    def test_deterministic(self):
        a = gen_synthetic_images(seed=6, n_per_class=2)
        b = gen_synthetic_images(seed=6, n_per_class=2)
        for (xa, la), (xb, lb) in zip(a.samples, b.samples):
            assert la == lb
            np.testing.assert_array_equal(xa, xb)

    def test_strong_mean_gradient(self):
        """At least 95% of samples sit 10x above the degeneracy threshold."""
        data = gen_synthetic_images(seed=12, n_per_class=25)
        energy = canonicalize_images(data.inputs).energy
        assert np.sum(energy >= 10.0 * GRADIENT_THRESHOLD) >= 0.95 * len(data.samples)

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            gen_synthetic_images(seed=0, n_per_class=1, size=15)
        gen_synthetic_images(seed=0, n_per_class=1, size=16)


class TestLabeledDataset:
    """The dataset is one validated, read-only array and a label vector."""

    def test_stacks_and_freezes(self):
        data = gen_synthetic_clouds(seed=1, n_per_class=2, n_points=16)
        assert data.inputs.shape == (8, 16, 3)
        assert not data.inputs.flags.writeable
        assert not data.labels().flags.writeable
        for (datum, label), row, target in zip(data.samples, data.inputs, data.labels()):
            assert np.shares_memory(datum, data.inputs)
            np.testing.assert_array_equal(datum, row)
            assert label == target and isinstance(label, int)

    def test_clamps_rasters_as_gray_image_does(self):
        raw = np.array([[[-0.5, 0.2], [1.7, 1.0]]])
        data = LabeledDataset("image", raw, [0], ("a",), 0)
        np.testing.assert_array_equal(data.inputs[0], GrayImage(raw[0]).pixels)

    @pytest.mark.parametrize("kind,inputs,targets,message", [
        ("cloud", [], [], "empty dataset"),
        ("cloud", [np.zeros((64, 3)), np.zeros((80, 3))], [0, 0],
         "the data mix 64-point clouds and 80-point clouds"),
        ("image", [np.zeros((4, 4)), np.zeros((5, 5))], [0, 0],
         "the data mix 4 x 4 rasters and 5 x 5 rasters"),
        ("cloud", [np.full((4, 3), np.inf)], [0], "non-finite"),
        ("image", [np.full((4, 4), np.nan)], [0], "non-finite"),
        ("cloud", [np.zeros((4, 3))], [2], "label 2 outside"),
        ("cloud", [np.zeros((4, 3))], [-1], "label -1 outside"),
        ("cloud", [np.zeros((4, 2))], [0], "expected cloud data"),
        ("mesh", [np.zeros((4, 3))], [0], "^kind must be 'image' or 'cloud', got 'mesh'$"),
        ("cloud", [np.zeros((4, 3))] * 2, [0], "^2 data but 1 labels$"),
    ], ids=["empty", "point-counts", "raster-sizes", "inf", "nan", "label-high",
            "label-negative", "cloud-shape", "kind", "label-count"])
    def test_rejects_invalid_data(self, kind, inputs, targets, message):
        with pytest.raises(ValueError, match=message):
            LabeledDataset(kind, inputs, targets, ("a", "b"), 0)

    @pytest.mark.parametrize("targets, message", [
        ([0.7, 1.9], "label 0.7 is not an integer"),
        ([0, 1.5], "label 1.5 is not an integer"),
        ([math.nan, 0], "label nan is not an integer"),
        (["0", "1"], "label '0' is not an integer"),
    ], ids=["fractions", "one-fraction", "nan", "strings"])
    def test_refuses_labels_the_int_cast_changes(self, targets, message):
        """A label is never truncated to a class: 0.7 is not class 0."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LabeledDataset("cloud", [np.zeros((4, 3))] * 2, targets, ("a", "b"), 0)

    def test_keeps_integral_labels_of_any_type(self):
        data = LabeledDataset("cloud", [np.zeros((4, 3))] * 3, [1.0, True, np.int8(0)],
                              ("a", "b"), 0)
        assert data.targets.tolist() == [1, 1, 0]

    @pytest.mark.parametrize("names, seed, message", [
        (("a", "c"), 1.5, "dataset seed 1.5 is not an integer"),
        (("a", "c"), True, "dataset seed True is not an integer"),
        (("a", "c"), np.bool_(False), "dataset seed False is not an integer"),
        ((7,), 0, "class name 7 is not a string"),
        (["a", b"c"], 0, "class name b'c' is not a string"),
    ], ids=["seed-fraction", "seed-flag", "seed-numpy-flag", "name-number", "name-bytes"])
    def test_refuses_a_seed_or_name_of_another_type(self, names, seed, message):
        """save_dataset would refuse these seeds, or fail on these names, only
        after the dataset was built; the record refuses them itself."""
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LabeledDataset("cloud", [np.eye(3)], [0], names, seed)

    def test_owns_its_names_and_seed(self):
        data = LabeledDataset("cloud", [np.eye(3)] * 2, [0, 1], ["a", "b"], np.int64(7))
        assert data.class_names == ("a", "b")
        assert data.seed == 7 and type(data.seed) is int


class TestTrainConfig:
    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            TrainConfig(mode="sgd")

    def test_rejects_bad_numbers(self):
        with pytest.raises(ValueError):
            TrainConfig(k=0)
        with pytest.raises(ValueError):
            TrainConfig(lam=-0.1)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(weight_decay=-1e-3)

    @pytest.mark.parametrize("field", ["lam", "weight_decay", "learning_rate", "sigma"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_rejects_non_finite_numbers(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            TrainConfig(**{field: value})

    def test_rejects_bad_canonicalize(self):
        with pytest.raises(ValueError):
            TrainConfig(canonicalize="sometimes")

    def test_rejects_bad_scheme(self):
        with pytest.raises(ValueError):
            TrainConfig(scheme="lanczos")

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed"):
            TrainConfig(seed=-1)
        TrainConfig(seed=0)

    @pytest.mark.parametrize("field", ["k", "epochs", "batch_size", "seed"])
    @pytest.mark.parametrize("value", [2.5, -1.5, True, np.True_, "2"],
                             ids=["float", "negative-float", "bool", "numpy-bool", "str"])
    def test_refuses_counts_that_are_not_integers(self, field, value):
        """A count is refused before its range check unless it is an int or a
        numpy integer, and a bool is not one: 2.5 used to build and fail inside
        numpy, after the model was built, and epochs=True trained one epoch."""
        message = f"{field} {value!r} is not an integer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("field", ["k", "epochs", "batch_size", "seed"])
    def test_numpy_integer_counts_build(self, field):
        assert getattr(TrainConfig(**{field: np.int64(3)}), field) == 3

    @pytest.mark.parametrize("field", ["lam", "weight_decay", "learning_rate", "sigma",
                                       "model-sigma"])
    @pytest.mark.parametrize("value", [True, "0.5"], ids=["bool", "str"])
    def test_refuses_float_fields_that_are_not_numbers(self, field, value):
        """A bool or a string in a float field is a ValueError naming it:
        sigma=True used to build and keep True, and lam="0.5" failed with
        Python's own TypeError from the range check."""
        with pytest.raises(ValueError, match=re.escape(repr(value))):
            if field == "model-sigma":
                _record(sigma=value)
            else:
                TrainConfig(**{field: value})

    def test_mode_list(self):
        assert MODES == ("plain", "random_augment", "adversarial", "mixed",
                         "adversarial_alp", "adversarial_kl")


def _record(**fields):
    """A valid two-class cloud model of 3 features with fields overridden."""
    return LinearSoftmaxModel(**{"weights": np.zeros((2, 3)), "bias": np.zeros(2),
                                 "kind": "cloud", **fields})


class TestModelRecord:
    """LinearSoftmaxModel refuses every field it cannot carry, once, when built."""

    @pytest.mark.parametrize("fields, message", [
        ({"kind": "mesh"}, "unknown model kind 'mesh'"),
        ({"canonicalize": "on"}, "unknown canonicalize mode 'on'"),
        ({"scheme": "lanczos"}, "unknown scheme 'lanczos'"),
        ({"mode": "whatever"}, "unknown training mode 'whatever'"),
        ({"sigma": 0.0}, "model sigma 0.0 is not a positive finite number"),
        ({"sigma": -1.0}, "model sigma -1.0 is not a positive finite number"),
        ({"sigma": math.nan}, "model sigma nan is not a positive finite number"),
        ({"sigma": math.inf}, "model sigma inf is not a positive finite number"),
        ({"weights": np.zeros(3)}, "weights must be C x F with a length-C bias"),
        ({"bias": np.zeros(3)}, "weights must be C x F with a length-C bias"),
        ({"weights": np.zeros((0, 3)), "bias": np.zeros(0)},
         "model weights are 0 x 3; a model needs at least one class and one feature"),
        ({"weights": np.zeros((2, 0))},
         "model weights are 2 x 0; a model needs at least one class and one feature"),
        ({"weights": np.array([[0.0, math.nan, 0.0], [0.0, 0.0, 0.0]])},
         "model weights or bias contain non-finite values"),
        ({"bias": np.array([0.0, -math.inf])}, "model weights or bias contain non-finite values"),
    ], ids=["kind", "canonicalize", "scheme", "mode", "sigma-zero", "sigma-negative",
            "sigma-nan", "sigma-inf", "weights-1d", "bias-length", "no-classes", "no-features",
            "weight-nan", "bias-inf"])
    def test_refuses(self, fields, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _record(**fields)

    @pytest.mark.parametrize("canonicalize", ["train_and_test", "test_only"])
    def test_canonicalizing_image_model_needs_a_scheme(self, canonicalize):
        """No default scheme stands in for an unset one: an image model that
        canonicalizes must record the scheme its reports are made with."""
        with pytest.raises(ValueError,
                           match="^an image model that canonicalizes needs a scheme$"):
            _record(kind="image", canonicalize=canonicalize, scheme=None)
        assert _record(kind="image", canonicalize="off", scheme=None).scheme is None
        assert _record(kind="cloud", canonicalize=canonicalize, scheme=None).scheme is None

    def test_unknown_canonicalize_never_reaches_an_audit(self):
        """A model that would canonicalize nothing yet report canonicalized=true
        is refused before the audit runs."""
        data = gen_synthetic_clouds(seed=0, n_per_class=1, n_points=8)
        with pytest.raises(ValueError, match="^unknown canonicalize mode 'on'$"):
            evaluate_rotation_grid_3d(LinearSoftmaxModel(np.zeros((4, 24)), np.zeros(4),
                                                         kind="cloud", canonicalize="on",
                                                         mode="whatever"), data)

    def test_fields_are_frozen_and_arrays_copied(self):
        weights = np.zeros((2, 3))
        model = _record(weights=weights, scheme=None)
        with pytest.raises(FrozenInstanceError):
            model.canonicalize = "on"
        weights[0, 0] = 1.0
        assert model.weights[0, 0] == 0.0 and model.weights.flags.writeable

    def test_train_config_shares_the_settings_check(self):
        """TrainConfig refuses a setting with the model's words; only a model's
        scheme may be unset."""
        for fields in ({"canonicalize": "on"}, {"mode": "sgd"}, {"sigma": math.inf}):
            with pytest.raises(ValueError) as config_error:
                TrainConfig(**fields)
            with pytest.raises(ValueError, match=f"^{re.escape(str(config_error.value))}$"):
                _record(**fields)
        with pytest.raises(ValueError, match="^unknown scheme None$"):
            TrainConfig(scheme=None)


def _log_softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _training_record(data, cfg):
    """The untrained model train_classifier builds from data and cfg and fits:
    a 'test_only' config is fitted as 'off'."""
    canonicalize = "off" if cfg.canonicalize == "test_only" else cfg.canonicalize
    return LinearSoftmaxModel(weights=np.zeros((data.n_classes, data.inputs[0].size)),
                              bias=np.zeros(data.n_classes), kind=data.kind,
                              canonicalize=canonicalize, scheme=cfg.scheme,
                              sigma=cfg.sigma, mode=cfg.mode)


def _worst_of_k_reference(data, cfg):
    """Adversarial training one sample at a time: each sample of a minibatch
    draws its k transforms, is featurized and scored on its own, and keeps
    the candidate of highest loss; one gradient step per minibatch follows.
    Draws and shuffles come from the trainer's seeded streams in its order."""
    clean = featurize(_training_record(data, cfg), [datum for datum, _ in data.samples])
    labels = data.labels()
    W = np.zeros((data.n_classes, clean.shape[1]))
    b = np.zeros(data.n_classes)
    shuffle_rng, aug_rng = (np.random.default_rng(s)
                            for s in np.random.SeedSequence(cfg.seed).spawn(2))
    grid = [r for _, r in rotation_grid_3d()]

    def draw(datum):
        if data.kind == "cloud":
            return np.asarray(datum) @ grid[int(aug_rng.integers(len(grid)))]
        return rotate_image(datum, float(aug_rng.uniform(0.0, 2.0 * np.pi)),
                            cfg.scheme)

    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            kept = []
            for i in idx:
                cand = featurize(_training_record(data, cfg),
                                 [draw(data.samples[i][0]) for _ in range(cfg.k)])
                losses = -_log_softmax(cand @ W.T + b)[:, labels[i]]
                kept.append(cand[int(np.argmax(losses))])
            kept = np.stack(kept)
            g = np.exp(_log_softmax(kept @ W.T + b))
            g[np.arange(len(idx)), labels[idx]] -= 1.0
            g /= len(idx)
            W -= cfg.learning_rate * (g.T @ kept)
            b -= cfg.learning_rate * g.sum(axis=0)
    return W, b


class TestTrainClassifier:
    @pytest.mark.parametrize("data,cfg", [
        (gen_synthetic_clouds(seed=4, n_per_class=4),
         TrainConfig(mode="adversarial", k=3, epochs=4, batch_size=5, seed=6)),
        (gen_synthetic_images(seed=4, n_per_class=2, size=32),
         TrainConfig(mode="adversarial", k=2, epochs=3, batch_size=3, seed=6,
                     canonicalize="train_and_test")),
    ], ids=["clouds-k3", "images-canon-k2"])
    def test_worst_of_k_matches_per_sample_reference(self, data, cfg):
        """Scoring a minibatch's candidates together keeps the same worst
        candidate per sample as scoring each sample's k on its own."""
        model = train_classifier(data, cfg)
        W, b = _worst_of_k_reference(data, cfg)
        np.testing.assert_array_equal(model.weights, W)
        np.testing.assert_array_equal(model.bias, b)

    def test_reaches_accuracy_on_canonical_clouds(self):
        """Plain training separates the canonicalized cloud classes."""
        data = gen_synthetic_clouds(seed=0, n_per_class=40)
        cfg = TrainConfig(mode="plain", epochs=200, seed=1,
                          weight_decay=3e-3, canonicalize="train_and_test")
        model = train_classifier(data, cfg)
        feats = np.stack([canonicalize_similarity(x)[0].ravel()
                          for x, _ in data.samples])
        accuracy = float(np.mean(model.predict(feats) == data.labels()))
        assert accuracy >= 0.95

    def test_deterministic(self):
        data = gen_synthetic_clouds(seed=2, n_per_class=6)
        cfg = TrainConfig(mode="adversarial", k=3, epochs=10, seed=5)
        a = train_classifier(data, cfg)
        b = train_classifier(data, cfg)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.bias, b.bias)

    def test_random_augment_is_worst_of_one(self):
        """Shared seed: K=1 adversarial and random augmentation coincide
        parameter for parameter."""
        data = gen_synthetic_clouds(seed=2, n_per_class=6)
        ra = train_classifier(data, TrainConfig(mode="random_augment",
                                                epochs=12, seed=7))
        adv1 = train_classifier(data, TrainConfig(mode="adversarial", k=1,
                                                  epochs=12, seed=7))
        np.testing.assert_array_equal(ra.weights, adv1.weights)
        np.testing.assert_array_equal(ra.bias, adv1.bias)

    def test_zero_lambda_pairing_equals_adversarial(self):
        """ALP and KL with lambda=0 take the exact adversarial trajectory."""
        data = gen_synthetic_clouds(seed=2, n_per_class=6)
        base = train_classifier(data, TrainConfig(mode="adversarial", k=4,
                                                  epochs=12, seed=9))
        for mode in ("adversarial_alp", "adversarial_kl"):
            paired = train_classifier(data, TrainConfig(mode=mode, k=4, lam=0.0,
                                                        epochs=12, seed=9))
            np.testing.assert_array_equal(paired.weights, base.weights)
            np.testing.assert_array_equal(paired.bias, base.bias)

    def test_nonzero_lambda_changes_trajectory(self):
        data = gen_synthetic_clouds(seed=2, n_per_class=6)
        base = train_classifier(data, TrainConfig(mode="adversarial", k=4,
                                                  epochs=12, seed=9))
        paired = train_classifier(data, TrainConfig(mode="adversarial_alp",
                                                    k=4, lam=0.5, epochs=12,
                                                    seed=9))
        assert not np.array_equal(paired.weights, base.weights)

    def test_mixed_differs_from_plain(self):
        data = gen_synthetic_clouds(seed=2, n_per_class=6)
        plain = train_classifier(data, TrainConfig(mode="plain", epochs=10,
                                                   seed=3))
        mixed = train_classifier(data, TrainConfig(mode="mixed", epochs=10,
                                                   seed=3))
        assert not np.array_equal(plain.weights, mixed.weights)

    @pytest.mark.parametrize("kind", ["cloud", "image"])
    @pytest.mark.parametrize("mode", ["plain", "random_augment", "adversarial"])
    def test_test_only_fits_as_off(self, kind, mode):
        """test_only canonicalizes at test time only, so it trains an off model
        bit for bit: the model files differ in the canonicalize code byte alone."""
        data = (gen_synthetic_clouds(seed=2, n_per_class=3) if kind == "cloud"
                else gen_synthetic_images(seed=2, n_per_class=2, size=16))
        cfg = TrainConfig(mode=mode, k=3, epochs=3, batch_size=4, seed=8)
        off = train_classifier(data, cfg)
        test_only = train_classifier(data, replace(cfg, canonicalize="test_only"))
        assert off.weights.tobytes() == test_only.weights.tobytes()
        assert off.bias.tobytes() == test_only.bias.tobytes()
        a, b = save_model(off), save_model(test_only)
        assert len(a) == len(b)
        assert [i for i in range(len(a)) if a[i] != b[i]] == [9]  # after magic and kind
        assert (a[9], b[9]) == (CANON_MODES.index("off"), CANON_MODES.index("test_only"))

    def test_model_records_mode_and_canonicalize(self):
        data = gen_synthetic_clouds(seed=2, n_per_class=3)
        cfg = TrainConfig(mode="random_augment", epochs=4, seed=0,
                          canonicalize="test_only")
        model = train_classifier(data, cfg)
        assert model.mode == "random_augment"
        assert model.canonicalize == "test_only"
        assert model.kind == "cloud"

    def test_divergence_raises(self):
        data = gen_synthetic_clouds(seed=2, n_per_class=3)
        cfg = TrainConfig(mode="plain", epochs=3, seed=0,
                          learning_rate=1e200, weight_decay=1e200)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="diverged"):
                train_classifier(data, cfg)


def _objective(W, b, adv, clean, labels, cfg):
    """The documented objective of mixed, adversarial_alp and adversarial_kl
    at fixed adversarial candidates: CE(adv), plus CE(clean) for mixed,
    plus lam times the batch mean of ||z_adv - z_clean||^2 (ALP) or of
    KL(softmax z_clean || softmax z_adv) (KL)."""
    rows = np.arange(len(labels))
    z_adv, z_clean = adv @ W.T + b, clean @ W.T + b
    logq, logp = _log_softmax(z_adv), _log_softmax(z_clean)
    loss = -logq[rows, labels].mean()
    if cfg.mode == "mixed":
        loss -= logp[rows, labels].mean()
    elif cfg.mode == "adversarial_alp":
        loss += cfg.lam * ((z_adv - z_clean) ** 2).sum(axis=1).mean()
    else:
        loss += cfg.lam * (np.exp(logp) * (logp - logq)).sum(axis=1).mean()
    return loss


def _central_difference_reference(data, cfg, h=1e-6):
    """Train raw-coordinate cloud features by stepping along central
    differences of _objective.  Candidates are drawn as _worst_of_k_reference
    draws them, one sample at a time from the trainer's seeded streams."""
    clean = data.inputs.reshape(len(data), -1)
    labels = data.labels()
    params = np.zeros(data.n_classes * (clean.shape[1] + 1))
    split = data.n_classes * clean.shape[1]

    def unpack(theta):
        return theta[:split].reshape(data.n_classes, -1), theta[split:]

    shuffle_rng, aug_rng = (np.random.default_rng(s)
                            for s in np.random.SeedSequence(cfg.seed).spawn(2))
    grid = [r for _, r in rotation_grid_3d()]
    for _ in range(cfg.epochs):
        order = shuffle_rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            W, b = unpack(params)
            kept = []
            for i in idx:
                cand = np.stack([(data.inputs[i] @ grid[int(aug_rng.integers(len(grid)))]).ravel()
                                 for _ in range(cfg.k)])
                kept.append(cand[int(np.argmax(-_log_softmax(cand @ W.T + b)[:, labels[i]]))])
            adv = np.stack(kept)
            grad = np.empty_like(params)
            for j in range(len(params)):
                step = np.zeros_like(params)
                step[j] = h
                grad[j] = (_objective(*unpack(params + step), adv, clean[idx], labels[idx], cfg)
                           - _objective(*unpack(params - step), adv, clean[idx], labels[idx],
                                        cfg)) / (2.0 * h)
            params = params - cfg.learning_rate * grad
    return unpack(params)


class TestPairingGradients:
    """The hand-derived gradients of mixed, ALP and KL step where central
    differences of their documented objective step.  ALP's and KL's pairing
    terms vanish at the zero start, so the runs take six steps (2 epochs of
    3 minibatches)."""

    @pytest.mark.parametrize("mode", ["mixed", "adversarial_alp", "adversarial_kl"])
    def test_matches_central_differences(self, mode):
        data = gen_synthetic_clouds(seed=31, n_per_class=2, n_points=8)
        cfg = TrainConfig(mode=mode, k=3, lam=0.5, epochs=2, batch_size=3, seed=4,
                          learning_rate=0.1)
        model = train_classifier(data, cfg)
        W, b = _central_difference_reference(data, cfg)
        # The weights reach about 0.2, and the extra term moves them by more
        # than 0.1 from plain adversarial training's.
        adversarial = train_classifier(data, replace(cfg, mode="adversarial"))
        assert np.abs(model.weights - adversarial.weights).max() > 0.1
        # Measured: the two trainers agree to 1e-10; a relative tolerance of
        # 1e-7 leaves room for the differences' rounding and nothing more.
        np.testing.assert_allclose(model.weights, W, rtol=1e-7, atol=1e-9)
        np.testing.assert_allclose(model.bias, b, rtol=1e-7, atol=1e-9)


class TestRotationGrid:
    def test_rotation_about_refuses_a_fourth_axis(self):
        with pytest.raises(ValueError, match="^axis must be 0, 1 or 2, got 3$"):
            rotation_about(3, 0.0)

    def test_rotation_about_is_orthonormal(self):
        for axis in (0, 1, 2):
            rot = rotation_about(axis, 0.7)
            np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(np.linalg.det(rot), 1.0, rtol=1e-12)

    def test_grid_structure(self):
        grid = rotation_grid_3d()
        assert len(grid) == GRID_STEPS_3D * GRID_STEPS_3D == 256
        label0, rot0 = grid[0]
        np.testing.assert_array_equal(rot0, np.eye(3))
        assert "0" in label0

    def test_scale_factors_pinned(self):
        assert SCALE_FACTORS == (0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 10.0,
                                 100.0, 1000.0)


class TestEvaluate3D:
    def test_constant_model_flat_report(self):
        data = gen_synthetic_clouds(seed=13, n_per_class=5)
        report = evaluate_rotation_grid_3d(_constant_model(data), data)
        share = 0.25
        assert report.clean == share
        assert report.average == share
        assert report.worst == share

    def test_identity_grid_point_equals_clean(self):
        data = gen_synthetic_clouds(seed=13, n_per_class=5)
        model = train_classifier(data, TrainConfig(mode="plain", epochs=20,
                                                   seed=1))
        report = evaluate_rotation_grid_3d(model, data)
        assert report.curve[0] == report.clean

    def test_report_consistency(self):
        data = gen_synthetic_clouds(seed=13, n_per_class=5)
        model = train_classifier(data, TrainConfig(mode="plain", epochs=20,
                                                   seed=1))
        for report in (evaluate_rotation_grid_3d(model, data),
                       evaluate_scale_sweep(model, data)):
            assert report.worst <= report.average
            assert abs(report.curve.mean() - report.average) <= 1e-12
            assert len(report.curve) == len(report.grid)
            assert report.n_samples == len(data.samples)

    def test_canonicalized_exact_invariance_small(self):
        """With train-and-test canonicalization every grid point repeats the
        clean per-sample outcome, so the three accuracies coincide."""
        data = gen_synthetic_clouds(seed=14, n_per_class=10)
        cfg = TrainConfig(mode="plain", epochs=60, seed=1, weight_decay=3e-3,
                          canonicalize="train_and_test")
        model = train_classifier(data, cfg)
        for report in (evaluate_rotation_grid_3d(model, data),
                       evaluate_scale_sweep(model, data)):
            assert report.clean == report.average == report.worst
            assert report.canonicalized

    def test_scale_one_equals_clean(self):
        data = gen_synthetic_clouds(seed=13, n_per_class=5)
        model = train_classifier(data, TrainConfig(mode="plain", epochs=20,
                                                   seed=1))
        report = evaluate_scale_sweep(model, data)
        idx = SCALE_FACTORS.index(1.0)
        assert report.curve[idx] == report.clean

    def test_report_mode_metadata(self):
        data = gen_synthetic_clouds(seed=13, n_per_class=3)
        model = train_classifier(data, TrainConfig(mode="mixed", epochs=5,
                                                   seed=1))
        report = evaluate_rotation_grid_3d(model, data)
        assert report.mode == "mixed"
        doc = report.document()
        assert doc.mode == "mixed"
        assert doc.kind == "rotation3d"
        np.testing.assert_array_equal(doc.curve, report.curve)


    def test_report_is_its_document(self):
        """An AuditReport is the ReportDocument it serializes as, with the
        per-sample flags on top."""
        data = gen_synthetic_clouds(seed=13, n_per_class=3)
        report = evaluate_scale_sweep(_constant_model(data), data)
        doc = report.document()
        assert isinstance(report, ReportDocument)
        assert type(doc) is ReportDocument
        assert report == doc and doc == report
        assert write_report(report) == write_report(doc)
        np.testing.assert_array_equal(report.per_sample_worst, data.labels() == 0)


class TestEvaluate2D:
    def test_constant_model_flat_report(self):
        data = gen_synthetic_images(seed=15, n_per_class=3, size=16)
        report = evaluate_rotation_sweep_2d(_constant_model(data), data)
        assert report.clean == report.average == report.worst == 0.25

    def test_angle_zero_equals_clean(self):
        data = gen_synthetic_images(seed=15, n_per_class=2, size=16)
        model = train_classifier(data, TrainConfig(mode="plain", epochs=15,
                                                   seed=2))
        report = evaluate_rotation_sweep_2d(model, data)
        assert report.curve[0] == report.clean
        assert len(report.curve) == 360

    def test_worst_counts_all_angle_survivors(self):
        data = gen_synthetic_images(seed=15, n_per_class=2, size=16)
        model = train_classifier(data, TrainConfig(mode="plain", epochs=15,
                                                   seed=2))
        report = evaluate_rotation_sweep_2d(model, data)
        assert report.worst == float(report.per_sample_worst.mean())
        assert report.worst <= report.average

    def test_scheme_recorded(self):
        data = gen_synthetic_images(seed=15, n_per_class=1, size=16)
        model = train_classifier(data, TrainConfig(mode="plain", epochs=5,
                                                   seed=2))
        for scheme in ("nearest", "bicubic"):
            report = evaluate_rotation_sweep_2d(model, data, scheme=scheme)
            assert report.scheme == scheme


def _per_datum_report(model, data, audit, grid, move, scheme):
    """The audit with every datum moved on its own at each grid point."""
    labels = data.labels()
    clean = model.predict(featurize(model, list(data.inputs))) == labels
    correct = np.stack([
        model.predict(featurize(model,
                                [move(datum, parameter) for datum in data.inputs])) == labels
        for _, parameter in grid], axis=1)
    curve = correct.mean(axis=0)
    return AuditReport(kind=audit, mode=model.mode, scheme=scheme,
                       canonicalized=model.canonicalize != "off",
                       n_samples=len(data), clean=float(clean.mean()),
                       average=float(curve.mean()),
                       worst=float(correct.all(axis=1).mean()),
                       grid=tuple(label for label, _ in grid), curve=curve,
                       per_sample_worst=correct.all(axis=1))


class TestSweepStack:
    """Moving the whole stack to a chunk of grid points per call reports
    what moving each datum on its own does."""

    @pytest.mark.parametrize("canonicalize", ["off", "train_and_test"])
    def test_scale_sweep_matches_per_datum_moves(self, canonicalize):
        data = gen_synthetic_clouds(seed=23, n_per_class=2, n_points=16)
        model = train_classifier(data, TrainConfig(epochs=20, seed=1,
                                                   canonicalize=canonicalize))
        report = evaluate_scale_sweep(model, data)
        ref = _per_datum_report(model, data, "scale",
                                [(f"{s:g}", s) for s in SCALE_FACTORS],
                                lambda x, s: x * s, "")
        assert report == ref
        np.testing.assert_array_equal(report.per_sample_worst, ref.per_sample_worst)

    @pytest.fixture(scope="class")
    def audits(self):
        """The three audits of small canonicalizing models, each with its
        data and its per-datum reference report."""
        clouds = gen_synthetic_clouds(seed=24, n_per_class=1, n_points=16)
        images = gen_synthetic_images(seed=24, n_per_class=1, size=16)
        cloud_model = train_classifier(clouds, TrainConfig(
            epochs=10, seed=1, canonicalize="train_and_test"))
        image_model = train_classifier(images, TrainConfig(
            epochs=5, seed=1, canonicalize="train_and_test", scheme="nearest"))
        scales = [(f"{s:g}", s) for s in SCALE_FACTORS]
        angles = [(str(deg), np.radians(deg)) for deg in range(360)]
        return [
            (lambda: evaluate_rotation_grid_3d(cloud_model, clouds), clouds,
             _per_datum_report(cloud_model, clouds, "rotation3d", rotation_grid_3d(),
                               lambda x, r: x @ r, "")),
            (lambda: evaluate_scale_sweep(cloud_model, clouds), clouds,
             _per_datum_report(cloud_model, clouds, "scale", scales,
                               lambda x, s: x * s, "")),
            (lambda: evaluate_rotation_sweep_2d(image_model, images, "bicubic"), images,
             _per_datum_report(image_model, images, "rotation2d", angles,
                               lambda x, a: rotate_image(x, a, "bicubic"), "bicubic")),
        ]

    @pytest.mark.parametrize("points_per_call", [1, 2, 3, 7, 400])
    def test_chunks_that_do_not_divide_the_grid(self, monkeypatch, audits,
                                                points_per_call):
        """256 rotations, 9 scales and 360 angles in chunks of 1-7 grid points
        (most leave a short last chunk) or all at once report what moving
        each datum on its own does."""
        for audit, data, ref in audits:
            monkeypatch.setattr("orbitcanon.audit.SWEEP_CHUNK_FLOATS",
                                points_per_call * data.inputs.size + 1)
            report = audit()
            assert report == ref
            np.testing.assert_array_equal(report.per_sample_worst, ref.per_sample_worst)

    def test_scale_audit_names_the_dataset_cloud(self, tmp_path, capsys):
        """Cloud 5, of coordinates at most 400 times the smallest subnormal,
        has a scale, but its 0.001x copy rounds to zero; the error names
        cloud 5, not its lane in the chunk."""
        data = gen_synthetic_clouds(seed=0, n_per_class=2)
        inputs = data.inputs.copy()
        inputs[5] = np.round(inputs[5] / np.abs(inputs[5]).max() * 400.0) * 2.0 ** -1074
        bad = tmp_path / "bad"
        save_dataset(LabeledDataset(kind="cloud", inputs=inputs, targets=data.targets,
                                    class_names=data.class_names, seed=0), bad)
        good = tmp_path / "good"
        save_dataset(data, good)
        model_path = tmp_path / "model.bin"
        assert run(["train", "--data", str(good), "--mode", "plain", "--epochs", "2",
                    "--canon", "train", "--model", str(model_path)]) == 0
        code = run(["audit-scale", "--model", str(model_path), "--data", str(bad),
                    "--out", str(tmp_path / "scale.csv")])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: degenerate input: cloud 5: every point is at the origin; "
            "no scale to remove\n")

    @pytest.mark.parametrize("n_clouds,named", [(8, "cloud 5: "), (1, "")])
    def test_degenerate_lane_past_a_chunks_first_grid_point(self, n_clouds, named):
        """x coordinates of 450 to 549 times the smallest subnormal u, exact:
        at scale 0.001 they round to 0 or u, at 0.01 (the 2nd grid point,
        inside the first chunk) all to 5u, so every point lands on the same
        one.  The error names the dataset's cloud, not its lane in the
        chunk, and a lone cloud none."""
        data = gen_synthetic_clouds(seed=0, n_per_class=2)
        inputs = data.inputs[:n_clouds].copy()
        inputs[5 % n_clouds] = 0.0
        inputs[5 % n_clouds, :, 0] = np.linspace(450.0, 549.0, 64).round() * 2.0 ** -1074
        data = LabeledDataset(kind="cloud", inputs=inputs, targets=data.targets[:n_clouds],
                              class_names=data.class_names, seed=0)
        model = replace(_constant_model(data), canonicalize="test_only")
        assert SWEEP_CHUNK_FLOATS // data.inputs.size > 32
        with pytest.raises(DegenerateCloudError,
                           match=f"^{named}every point is at the origin"):
            evaluate_scale_sweep(model, data)

    def test_peak_memory_of_the_rotation_grid(self):
        """The 3-D audit of 40 canonicalized 64-point clouds holds the stack
        plus at most 8 arrays of 61440 floats (4.0 MB).  Measured: 2.4 MB at
        SWEEP_CHUNK_FLOATS = 61440 (3.3 MB when the chunk's moved stacks were
        concatenated), 4.7 MB at twice that and 57 MB for the whole grid at
        once."""
        data = gen_synthetic_clouds(seed=25, n_per_class=10)
        model = replace(_constant_model(data), canonicalize="test_only")
        evaluate_rotation_grid_3d(model, gen_synthetic_clouds(seed=25, n_per_class=1))
        tracemalloc.start()
        try:
            evaluate_rotation_grid_3d(model, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert SWEEP_CHUNK_FLOATS // data.inputs.size >= 1
        assert peak <= data.inputs.nbytes + 8 * 61440 * 8

    @pytest.mark.parametrize("canonicalize", ["off", "train_and_test"])
    def test_cloud_grid_matches_per_datum_moves(self, canonicalize):
        data = gen_synthetic_clouds(seed=21, n_per_class=2, n_points=16)
        model = train_classifier(data, TrainConfig(epochs=20, seed=1,
                                                   canonicalize=canonicalize))
        report = evaluate_rotation_grid_3d(model, data)
        ref = _per_datum_report(model, data, "rotation3d", rotation_grid_3d(),
                                lambda x, r: x @ r, "")
        assert report == ref
        np.testing.assert_array_equal(report.per_sample_worst, ref.per_sample_worst)

    @pytest.mark.parametrize("canonicalize,scheme", [("off", "nearest"),
                                                     ("train_and_test", "bicubic")])
    def test_image_sweep_matches_per_datum_moves(self, canonicalize, scheme):
        data = gen_synthetic_images(seed=22, n_per_class=1, size=16)
        model = train_classifier(data, TrainConfig(epochs=10, seed=1,
                                                   canonicalize=canonicalize))
        report = evaluate_rotation_sweep_2d(model, data, scheme=scheme)
        grid = [(str(deg), np.radians(deg)) for deg in range(360)]
        ref = _per_datum_report(model, data, "rotation2d", grid,
                                lambda x, a: rotate_image(x, a, scheme), scheme)
        assert report == ref
        np.testing.assert_array_equal(report.per_sample_worst, ref.per_sample_worst)


def _bits(x):
    """The shape and bytes of a float array, so -0.0 and 0.0 differ."""
    x = np.asarray(x, dtype=float)
    return x.shape, x.tobytes()


def _sweep_moves(monkeypatch, audit_fn, model, data):
    """The grid and the move that audit_fn hands the sweep."""
    captured = []
    monkeypatch.setattr(audit_module, "_sweep",
                        lambda *args: captured.append((args[4], args[5])))
    audit_fn(model, data)
    return captured[0]


class TestChunkMoves:
    """Each sweep chunk is moved in one call: a stack (G, N, ...) whose slice g
    is the data moved to the chunk's grid point g, bit for bit."""

    @pytest.mark.parametrize("audit_fn, per_point", [
        (evaluate_rotation_grid_3d, np.matmul), (evaluate_scale_sweep, np.multiply)])
    def test_cloud_moves_equal_one_grid_point_at_a_time(self, monkeypatch, audit_fn,
                                                         per_point):
        data = gen_synthetic_clouds(seed=26, n_per_class=3)
        grid, move = _sweep_moves(monkeypatch, audit_fn, _constant_model(data), data)
        parameters = np.array([parameter for _, parameter in grid])
        for start in range(0, len(grid), 7):
            moved = move(data.inputs, parameters[start:start + 7])
            assert moved.shape == (len(parameters[start:start + 7]),) + data.inputs.shape
            for got, parameter in zip(moved, parameters[start:start + 7]):
                assert _bits(got) == _bits(per_point(data.inputs, parameter))
                for cloud, moved_cloud in zip(data.inputs, got):
                    assert _bits(moved_cloud) == _bits(per_point(cloud, parameter))

    def test_raster_move_equals_one_angle_at_a_time(self, monkeypatch):
        data = gen_synthetic_images(seed=26, n_per_class=1, size=16)
        model = _constant_model(data)
        for scheme in ("nearest", "bicubic"):
            grid, move = _sweep_moves(
                monkeypatch, lambda m, d: evaluate_rotation_sweep_2d(m, d, scheme),
                model, data)
            angles = np.array([angle for _, angle in grid[29:34]])
            for got, angle in zip(move(data.inputs, angles), angles):
                assert _bits(got) == _bits(rotate_image(data.inputs, angle, scheme))

    @pytest.mark.parametrize("points_per_call", [1, 7, None, 400])
    def test_one_move_per_chunk(self, monkeypatch, points_per_call):
        """move runs ceil(len(grid) / step) times per audit, step grid points
        at a time, and the 2-D audit makes one rotate_image call per move."""
        clouds = gen_synthetic_clouds(seed=27, n_per_class=1, n_points=16)
        images = gen_synthetic_images(seed=27, n_per_class=1, size=16)
        sweep, calls = audit_module._sweep, Counter()

        def counted(model, data, audit, kind, grid, move, scheme):
            def counted_move(inputs, parameters):
                calls[audit] += 1
                return move(inputs, parameters)
            return sweep(model, data, audit, kind, grid, counted_move, scheme)

        def counted_rotate(*args):
            calls["rotate_image"] += 1
            return rotate_image(*args)

        monkeypatch.setattr(audit_module, "_sweep", counted)
        monkeypatch.setattr(audit_module, "rotate_image", counted_rotate)
        for audit_fn, data, audit, size in [
                (evaluate_rotation_grid_3d, clouds, "rotation3d", 256),
                (evaluate_scale_sweep, clouds, "scale", len(SCALE_FACTORS)),
                (evaluate_rotation_sweep_2d, images, "rotation2d", 360)]:
            if points_per_call is not None:
                monkeypatch.setattr(audit_module, "SWEEP_CHUNK_FLOATS",
                                    points_per_call * data.inputs.size + 1)
            step = max(1, audit_module.SWEEP_CHUNK_FLOATS // data.inputs.size)
            audit_fn(_constant_model(data), data)
            assert calls[audit] == math.ceil(size / step)
        assert calls["rotate_image"] == calls["rotation2d"]


class TestOverflowingLogits:
    """predict and softmax_curve refuse logits that overflow instead of ranking
    or exponentiating them; logits itself, which the trainer's divergence check
    reads, computes them unchecked.  The model's logits are +-weight times the z
    coordinate of the cloud's point 0, which rotations about z keep."""

    MESSAGE = "the model's logits overflow the float range on these inputs"

    @staticmethod
    def _model(weight):
        weights = np.zeros((2, 12))
        weights[:, 2] = weight, -weight
        return LinearSoftmaxModel(weights=weights, bias=np.zeros(2), kind="cloud")

    @staticmethod
    def _cloud(z):
        cloud = np.zeros((4, 3))
        cloud[0, 2], cloud[1:, :2] = z, np.eye(3)[:, :2]
        return cloud

    def test_predict_refuses(self):
        model, feats = self._model(2.0), self._cloud(1e308).reshape(1, -1)
        with pytest.raises(ValueError, match=f"^{re.escape(self.MESSAGE)}$"):
            model.predict(feats)
        with np.errstate(over="ignore"):
            np.testing.assert_array_equal(model.logits(feats), [[np.inf, -np.inf]])

    def test_curve_refuses(self):
        with pytest.raises(ValueError, match=f"^{re.escape(self.MESSAGE)}$"):
            softmax_curve(self._model(2.0), (self._cloud(1e308), 0), [0.0, 1.0])

    def test_curve_of_logits_further_apart_than_the_float_range(self):
        """Logits of +-1e308 are finite; their gap is not, and the probabilities
        are its limits, with no warning."""
        model, cloud = self._model(1.0), self._cloud(1e308)
        np.testing.assert_array_equal(softmax_curve(model, (cloud, 0), [0.0, 1.0]), [1.0, 1.0])
        np.testing.assert_array_equal(softmax_curve(model, (cloud, 1), [0.0, 1.0]), [0.0, 0.0])

    def test_scale_audit_refuses(self):
        """Clouds of coordinates near 1e306 give logits that overflow at the
        larger scales."""
        data = gen_synthetic_clouds(seed=0, n_per_class=1, n_points=8)
        model = LinearSoftmaxModel(weights=np.ones((4, 24)), bias=np.zeros(4), kind="cloud")
        with pytest.raises(ValueError, match=f"^{re.escape(self.MESSAGE)}$"):
            evaluate_scale_sweep(model, replace(data, inputs=data.inputs * 1e306))


class TestSoftmaxCurve:
    def test_angle_zero_equals_clean_probability(self):
        data = gen_synthetic_images(seed=16, n_per_class=2, size=16)
        model = train_classifier(data, TrainConfig(mode="plain", epochs=15,
                                                   seed=2))
        img, label = data.samples[0]
        angles = np.radians(np.arange(0.0, 360.0, 45.0))
        curve = softmax_curve(model, (img, label), angles)
        feats = img.ravel()[None, :]
        logits = model.logits(feats)[0]
        z = logits - logits.max()
        clean_prob = float(np.exp(z[label]) / np.exp(z).sum())
        assert curve[0] == clean_prob

    def test_constant_image_near_flat(self):
        """Only the corner fill varies under rotation; the curve stays
        within a narrow band (measured 0.031 peak-to-peak at this size)."""
        data = gen_synthetic_images(seed=41, n_per_class=2, size=16)
        model = train_classifier(data, TrainConfig(mode="plain", epochs=30,
                                                   seed=2))
        const = GrayImage(np.full((16, 16), 0.5))
        angles = np.radians(np.arange(0, 360, 5, dtype=float))
        curve = softmax_curve(model, (const, 0), angles)
        assert float(np.ptp(curve)) <= 0.05

    def test_canonicalized_cloud_curve_constant(self):
        """Cloud canonicalization is exact, so the 16-angle circle gives one
        repeated probability to 1e-8 (observed: identical to the last bit)."""
        data = gen_synthetic_clouds(seed=17, n_per_class=6)
        cfg = TrainConfig(mode="plain", epochs=40, seed=1,
                          canonicalize="train_and_test")
        model = train_classifier(data, cfg)
        angles = 2.0 * np.pi * np.arange(16) / 16.0
        cloud, label = data.samples[0]
        curve = softmax_curve(model, (cloud, label), angles)
        assert np.ptp(curve) <= 1e-8

    @pytest.mark.parametrize("label", [-1, 4, 1.0, True])
    def test_label_outside_the_classes_is_refused(self, label):
        """-1 used to give class 3's curve, 4 and 1.0 a bare IndexError, and
        True every class's probability at each angle."""
        data = gen_synthetic_images(seed=16, n_per_class=1, size=16)
        message = f"label {label!r} is not one of the model's 4 classes"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            softmax_curve(_constant_model(data), (data.inputs[0], label), [0.0])

    @pytest.mark.parametrize("kind, scheme", [("image", "nearest"), ("image", "bilinear"),
                                              ("image", "bicubic"), ("cloud", "bilinear")])
    def test_bits_across_short_chunks(self, monkeypatch, kind, scheme):
        """Swept 7 angles at a time, so the 360 end in a chunk of 3, a canonicalizing
        model's curve is the softmax of each angle rotated and featurized alone."""
        if kind == "image":
            data = gen_synthetic_images(seed=28, n_per_class=1, size=16)
            alone = lambda datum, a: rotate_image(datum, a, scheme)  # noqa: E731
        else:
            data = gen_synthetic_clouds(seed=28, n_per_class=1, n_points=16)
            alone = lambda datum, a: datum @ rotation_about(2, a)  # noqa: E731
        model = train_classifier(data, TrainConfig(epochs=10, seed=1, scheme=scheme,
                                                   canonicalize="train_and_test"))
        datum, label = data.samples[1]
        angles = np.radians(np.arange(360.0))
        monkeypatch.setattr(audit_module, "SWEEP_CHUNK_FLOATS", 7 * datum.size + 1)
        expected = []
        for a in angles:
            z = model.logits(featurize(model, alone(datum, a)[None]))
            shifted = z - z.max(axis=1, keepdims=True)
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            expected.append(np.exp(logp)[0, label])
        assert len(angles) % 7 == 3
        assert _bits(softmax_curve(model, (datum, label), angles, scheme)) == _bits(expected)

    def test_working_set_of_a_canonicalized_curve(self):
        """A 360-angle curve of a 128 x 128 raster through a canonicalizing
        bicubic model holds a chunk of rotated copies at a time, not all 360.
        Measured: 25.3 raster sizes, against 736.5 when every angle was moved
        and featurized in one call."""
        datum = np.random.default_rng(29).random((128, 128))
        model = LinearSoftmaxModel(weights=np.zeros((4, datum.size)), bias=np.zeros(4),
                                   kind="image", canonicalize="train_and_test",
                                   scheme="bicubic")
        angles = np.radians(np.arange(360.0))
        softmax_curve(model, (datum, 0), angles[:2], "bicubic")
        tracemalloc.start()
        try:
            softmax_curve(model, (datum, 0), angles, "bicubic")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * datum.nbytes


class TestFeaturize:
    """featurize stacks canonical forms when the model canonicalizes."""

    def test_cloud_rows_are_canonical_forms(self):
        rng = np.random.default_rng(18)
        clouds = [rng.normal(size=(12, 3)) for _ in range(3)]
        model = LinearSoftmaxModel(weights=np.zeros((4, 36)), bias=np.zeros(4),
                                   kind="cloud", canonicalize="test_only")
        feats = featurize(model, clouds)
        for row, x in zip(feats, clouds):
            np.testing.assert_array_equal(row, canonicalize_similarity(x)[0].ravel())

    def test_image_scheme_threads_through(self):
        data = gen_synthetic_images(seed=19, n_per_class=1, size=16)
        img = data.samples[0][0]
        a = featurize(_training_record(data, TrainConfig(canonicalize="train_and_test",
                                                         scheme="nearest")), [img])
        b = featurize(_training_record(data, TrainConfig(canonicalize="train_and_test",
                                                         scheme="bilinear")), [img])
        assert not np.array_equal(a, b)

    def test_training_skips_test_only_canonicalization(self):
        """The record the trainer fits for a test_only config gives raw rows."""
        data = gen_synthetic_clouds(seed=20, n_per_class=1)
        clouds = [x for x, _ in data.samples]
        feats = featurize(_training_record(data, TrainConfig(canonicalize="test_only")), clouds)
        np.testing.assert_array_equal(feats, np.stack([x.ravel() for x in clouds]))

    def test_takes_no_stage_flag(self):
        """The model record alone decides the orbit mapping."""
        with pytest.raises(TypeError):
            featurize(_record(), np.zeros((1, 1, 3)), training=True)
