"""Worst-case robustness audits of linear softmax classifiers.

The question under audit: a model that looks accurate on clean test data
can be driven to chance by rotating (or rescaling) its inputs, and
canonicalizing inputs removes that exactly.  For clouds, reports of
augmented training measure the model class, not augmentation: a linear
head on raw coordinates can represent no rotation-invariant function
beyond its bias.  Everything here is deliberately small and
deterministic — a linear softmax head on raw features, plain minibatch
gradient descent, fixed transform grids — so that identical seeds
reproduce identical models and reports byte for byte.

Training modes:

  plain            clean samples only
  random_augment   one random orbit transform per sample per epoch
  adversarial      the worst of k sampled transforms per sample (by the
                   sample's current loss)
  mixed            clean loss plus the adversarial loss
  adversarial_alp  adversarial loss plus lam * ||z - z_hat||^2 pairing
                   the clean and adversarial logits
  adversarial_kl   adversarial loss plus lam * KL(softmax(z) || softmax(z_hat))

random_augment runs through the same machinery as adversarial with k=1,
and the pairing term is skipped entirely when lam == 0, so the
equivalences (random_augment == adversarial@k=1, adversarial_alp@lam=0 ==
adversarial) hold bitwise.

Data travel as stacks with a leading batch axis (LabeledDataset), which
featurize, the one place where the orbit mappings run, turns into
features; each audit, and curve, featurizes its stack moved to a chunk of grid points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from functools import partial

import numpy as np

from .cloud import canonicalize_clouds
from .image import SCHEMES, canonicalize_images, rotate_image

# The order of these tables fixes the codes in model files.
KINDS = ("image", "cloud")
CANON_MODES = ("off", "train_and_test", "test_only")
MODES = ("plain", "random_augment", "adversarial", "mixed",
         "adversarial_alp", "adversarial_kl")

# Multiplicative inputs for the scale audit.
SCALE_FACTORS = (0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 100.0, 1000.0)

GRID_STEPS_3D = 16

# Floats an audit moves and featurizes per call, in whole grid points (at
# least one): 8 of 40 64-point clouds.  On the 3-D and scale audits of those,
# 16 took 11-13% longer and twice the traced peak (4.7 MB, not 2.4 MB), and
# 4 ran 3-4% slower (numpy 2.4, 2-core x86 guest).
SWEEP_CHUNK_FLOATS = 61440

_CLOUD_CLASSES = ("shell", "box", "tube", "cross")
_IMAGE_CLASSES = ("disc", "bar", "wedge", "blobs")

# The class templates and shape parameters are fixed; the user-facing seed
# varies only the per-sample perturbations, so datasets generated with
# different seeds are draws from the same four class distributions.
_TEMPLATE_SEED = 715225739


# ---------------------------------------------------------------------------
# Datasets


def _is_integer(value) -> bool:
    """Whether value is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """Whether value is a Python or numpy integer or float; a bool is not one."""
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)


@dataclass(frozen=True)
class LabeledDataset:
    """Data of one kind ('image' or 'cloud') stacked in one array, with labels.

    inputs, equally sized data, become one read-only float array, (N, P, 3)
    for clouds and (N, h, w) for rasters, and targets a read-only int
    vector.  Data are validated here, once: non-empty, one datum size (a
    mismatch names both), finite, integer labels within class_names, and
    rasters clamped into [0, 1] as GrayImage clamps them.  class_names
    become a tuple of str and the seed an int; a bool is not a seed.
    """

    kind: str
    inputs: np.ndarray
    targets: np.ndarray
    class_names: tuple[str, ...]
    seed: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be 'image' or 'cloud', got {self.kind!r}")
        names = tuple(self.class_names)
        for name in names:
            if not isinstance(name, str):
                raise ValueError(f"class name {name!r} is not a string")
        if not _is_integer(self.seed):
            raise ValueError(f"dataset seed {self.seed} is not an integer")
        if len(self.inputs) == 0:
            raise ValueError("empty dataset")
        first = np.shape(self.inputs[0])
        for datum in self.inputs:
            if np.shape(datum) != first:
                raise ValueError(f"the data mix {_sized(self.kind, math.prod(first))} "
                                 f"and {_sized(self.kind, np.size(datum))}")
        inputs = np.array(self.inputs, dtype=float)
        labels = np.asarray(self.targets)
        with np.errstate(invalid="ignore"):
            targets = labels.astype(int)
        changed = labels[targets != labels]
        if changed.size:
            raise ValueError(f"label {changed[0].item()!r} is not an integer")
        if inputs.ndim != 3 or (self.kind == "cloud" and inputs.shape[2] != 3):
            raise ValueError(f"expected {self.kind} data, got an array of shape {inputs.shape}")
        if not np.all(np.isfinite(inputs)):
            raise ValueError(f"{self.kind} data contain non-finite values")
        if targets.shape != (len(inputs),):
            raise ValueError(f"{len(inputs)} data but {targets.size} labels")
        outside = targets[(targets < 0) | (targets >= self.n_classes)]
        if outside.size:
            raise ValueError(f"label {outside[0]} outside the declared classes")
        if self.kind == "image":
            inputs = np.clip(inputs, 0.0, 1.0)
        inputs.flags.writeable = targets.flags.writeable = False
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "class_names", names)
        object.__setattr__(self, "seed", int(self.seed))

    def __len__(self) -> int:
        return len(self.inputs)

    @property
    def n_classes(self) -> int:
        return len(self.class_names)

    @property
    def samples(self) -> tuple:
        """(datum, label) pairs; each datum a read-only view of inputs."""
        return tuple(zip(self.inputs, self.targets.tolist()))

    def labels(self) -> np.ndarray:
        """The read-only label vector."""
        return self.targets


def gen_synthetic_clouds(seed: int, n_per_class: int = 40,
                         n_points: int = 64) -> LabeledDataset:
    """Four-class point-cloud suite: jittered copies of fixed templates.

    Each class is one fixed template (a sphere shell, box surface, tube,
    or two crossed planes) with anisotropic axis scales of roughly
    1.3 : 1.0 : 0.7 in standard deviation, so principal axes are well
    separated; point 0 is overwritten with an off-axis anchor that pins
    the canonical sign choices away from zero.  Samples add Gaussian
    jitter (0.03) and an independent per-axis stretch in [0.92, 1.08].
    Row order is meaningful and shared across samples, which is what lets
    a linear model on raw coordinates separate the classes.
    """
    if n_per_class < 1 or n_points < 8:
        raise ValueError("need n_per_class >= 1 and n_points >= 8")
    trng = np.random.default_rng(_TEMPLATE_SEED)
    templates = []
    for name in _CLOUD_CLASSES:
        if name == "shell":
            w = trng.normal(size=(n_points, 3))
            pts = w / np.linalg.norm(w, axis=1, keepdims=True)
        elif name == "box":
            axes = trng.integers(0, 3, size=n_points)
            signs = trng.choice([-1.0, 1.0], size=n_points)
            pts = trng.uniform(-1.0, 1.0, size=(n_points, 3))
            pts[np.arange(n_points), axes] = signs
        elif name == "tube":
            phi = trng.uniform(0.0, 2.0 * np.pi, size=n_points)
            pts = np.stack([np.cos(phi), np.sin(phi),
                            trng.uniform(-1.0, 1.0, size=n_points)], axis=1)
        else:  # cross: two orthogonal plane patches
            half = n_points // 2
            a = trng.uniform(-1.0, 1.0, size=(half, 2))
            b = trng.uniform(-1.0, 1.0, size=(n_points - half, 2))
            pts = np.zeros((n_points, 3))
            pts[:half, 0], pts[:half, 1] = a[:, 0], a[:, 1]
            pts[half:, 0], pts[half:, 2] = b[:, 0], b[:, 1]
        pts[0] = (1.1, 0.8, 0.6)
        pts = pts - pts.mean(axis=0)
        pts = pts * (np.array([1.3, 1.0, 0.7]) / pts.std(axis=0))
        templates.append(pts)

    rng = np.random.default_rng(seed)
    clouds = []
    for template in templates:
        for _ in range(n_per_class):
            jitter = rng.normal(scale=0.03, size=template.shape)
            stretch = rng.uniform(0.92, 1.08, size=3)
            clouds.append((template + jitter) * stretch)
    return LabeledDataset(kind="cloud", inputs=clouds,
                          targets=np.repeat(np.arange(len(templates)), n_per_class),
                          class_names=_CLOUD_CLASSES, seed=seed)


def _smoothstep(x, width):
    # Logistic edge profile; width sets the transition scale.
    return 1.0 / (1.0 + np.exp(-x / width))


def gen_synthetic_images(seed: int, n_per_class: int = 12,
                         size: int = 32) -> LabeledDataset:
    """Four-class grayscale suite with a strong, stable orientation cue.

    Every class puts its mass off-center (a shifted disc, an oriented
    bar, a corner wedge, an unequal blob pair), so the circle-averaged
    gradient is far from zero and the canonical angle is well conditioned
    for every sample.  The seed jitters positions, sizes and amplitudes
    mildly around fixed class parameters.
    """
    if n_per_class < 1 or size < 16:
        raise ValueError("need n_per_class >= 1 and size >= 16")
    idx = np.arange(size, dtype=float)
    z2 = (idx[None, :] + 0.5) / size
    z1 = (size - idx[:, None] - 0.5) / size

    rng = np.random.default_rng(seed)
    rasters = []
    for name in _IMAGE_CLASSES:
        for _ in range(n_per_class):
            base = np.full((size, size), 0.06)
            if name == "disc":
                c1 = 0.38 + 0.04 * rng.standard_normal()
                c2 = 0.61 + 0.04 * rng.standard_normal()
                radius = 0.17 + 0.02 * rng.standard_normal()
                amp = 0.85 + 0.04 * rng.standard_normal()
                d = np.hypot(z1 - c1, z2 - c2)
                base += amp * _smoothstep(radius - d, 0.05)
            elif name == "bar":
                c1 = 0.42 + 0.03 * rng.standard_normal()
                c2 = 0.57 + 0.03 * rng.standard_normal()
                phi = math.radians(35.0 + 8.0 * rng.standard_normal())
                half_len = 0.26 + 0.02 * rng.standard_normal()
                half_wid = 0.08 + 0.01 * rng.standard_normal()
                xi = (z2 - c2) * math.cos(phi) + (z1 - c1) * math.sin(phi)
                eta = -(z2 - c2) * math.sin(phi) + (z1 - c1) * math.cos(phi)
                base += 0.8 * (_smoothstep(half_len - np.abs(xi), 0.03)
                               * _smoothstep(half_wid - np.abs(eta), 0.03))
            elif name == "wedge":
                a = 0.56 + 0.03 * rng.standard_normal()
                b = 0.53 + 0.03 * rng.standard_normal()
                amp = 0.75 + 0.04 * rng.standard_normal()
                base += amp * (_smoothstep(z2 - a, 0.06)
                               * _smoothstep(z1 - b, 0.06))
            else:  # blobs
                p1 = (0.40 + 0.03 * rng.standard_normal(),
                      0.63 + 0.03 * rng.standard_normal())
                p2 = (0.64 + 0.03 * rng.standard_normal(),
                      0.34 + 0.03 * rng.standard_normal())
                d1 = (z1 - p1[0]) ** 2 + (z2 - p1[1]) ** 2
                d2 = (z1 - p2[0]) ** 2 + (z2 - p2[1]) ** 2
                base += 0.85 * np.exp(-d1 / (2 * 0.11 ** 2))
                base += 0.50 * np.exp(-d2 / (2 * 0.08 ** 2))
            rasters.append(base)
    return LabeledDataset(kind="image", inputs=rasters,
                          targets=np.repeat(np.arange(len(_IMAGE_CLASSES)), n_per_class),
                          class_names=_IMAGE_CLASSES, seed=seed)


# ---------------------------------------------------------------------------
# Model and transforms


def _check_settings(canonicalize, scheme, sigma, mode, schemes=(None,) + SCHEMES):
    """Refuse a canonicalize setting, scheme (one of schemes), blur sigma or
    training mode that a model cannot record."""
    if canonicalize not in CANON_MODES:
        raise ValueError(f"unknown canonicalize mode {canonicalize!r}")
    if scheme not in schemes:
        raise ValueError(f"unknown scheme {scheme!r}")
    if not (_is_real(sigma) and 0.0 < sigma < math.inf):
        raise ValueError(f"model sigma {sigma!r} is not a positive finite number")
    if mode not in MODES:
        raise ValueError(f"unknown training mode {mode!r}")


@dataclass(frozen=True)
class LinearSoftmaxModel:
    """Linear softmax classifier on flattened features.

    kind fixes the feature layout (raveled pixels for images, raveled
    fixed-order coordinates for clouds); canonicalize records whether
    inputs pass through the canonicalizer never, at both train and test
    time, or at test time only.  scheme (None when unset, which an image
    model that canonicalizes may not be) and sigma parameterize the image
    canonicalizer, and mode records how the model was trained; all are
    carried so a saved model audits identically after loading.  Every field
    is checked here, once, and none can be reassigned; weights and bias are
    kept as float copies, which the trainer fits in place.
    """

    weights: np.ndarray
    bias: np.ndarray
    kind: str
    canonicalize: str = "off"
    scheme: str | None = None
    sigma: float = 1.0
    mode: str = "plain"

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        _check_settings(self.canonicalize, self.scheme, self.sigma, self.mode)
        if self.kind == "image" and self.canonicalize != "off" and self.scheme is None:
            raise ValueError("an image model that canonicalizes needs a scheme")
        weights = np.array(self.weights, dtype=float)
        bias = np.array(self.bias, dtype=float)
        if weights.ndim != 2 or bias.shape != (len(weights),):
            raise ValueError("weights must be C x F with a length-C bias")
        if 0 in weights.shape:
            raise ValueError(f"model weights are {weights.shape[0]} x {weights.shape[1]}; "
                             "a model needs at least one class and one feature")
        if not (np.all(np.isfinite(weights)) and np.all(np.isfinite(bias))):
            raise ValueError("model weights or bias contain non-finite values")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "bias", bias)

    def logits(self, features: np.ndarray) -> np.ndarray:
        return features @ self.weights.T + self.bias

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.argmax(self._finite_logits(features), axis=1)

    def _finite_logits(self, features: np.ndarray) -> np.ndarray:
        """logits, refused with ValueError where inputs too large for the model overflow one."""
        with np.errstate(over="ignore", invalid="ignore"):
            z = self.logits(features)
        if not np.all(np.isfinite(z)):
            raise ValueError("the model's logits overflow the float range on these inputs")
        return z


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for train_classifier; validated on construction."""

    mode: str = "plain"
    k: int = 10
    lam: float = 0.0
    epochs: int = 200
    learning_rate: float = 0.5
    batch_size: int = 32
    weight_decay: float = 0.0
    seed: int = 0
    canonicalize: str = "off"
    scheme: str = "bilinear"
    sigma: float = 1.0

    def __post_init__(self):
        for name in ("k", "epochs", "batch_size", "seed"):
            value = getattr(self, name)
            if not _is_integer(value):
                raise ValueError(f"{name} {value!r} is not an integer")
        for name in ("lam", "weight_decay", "learning_rate"):
            value = getattr(self, name)
            if not _is_real(value):
                raise ValueError(f"{name} {value!r} is not a real number")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not (0.0 <= self.lam < math.inf and 0.0 <= self.weight_decay < math.inf):
            raise ValueError("lam and weight_decay must be finite and >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if not 0.0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        _check_settings(self.canonicalize, self.scheme, self.sigma, self.mode, SCHEMES)


def rotation_about(axis: int, angle: float) -> np.ndarray:
    """Rotation matrix about a coordinate axis, for row-vector clouds (X @ R)."""
    c, s = math.cos(angle), math.sin(angle)
    if axis == 0:
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    if axis == 1:
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    if axis == 2:
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    raise ValueError(f"axis must be 0, 1 or 2, got {axis}")


def rotation_grid_3d() -> list[tuple[str, np.ndarray]]:
    """The S x S audit grid Rz(2 pi i / S) @ Rx(2 pi j / S), S = GRID_STEPS_3D, named 'i:j'."""
    grid = []
    for i in range(GRID_STEPS_3D):
        ri = rotation_about(2, 2.0 * np.pi * i / GRID_STEPS_3D)
        for j in range(GRID_STEPS_3D):
            rj = rotation_about(0, 2.0 * np.pi * j / GRID_STEPS_3D)
            grid.append((f"{i}:{j}", ri @ rj))
    return grid


def featurize(model, data) -> np.ndarray:
    """The feature matrix of a stack of data, one raveled datum a row.

    data is a stack (N, P, 3) of clouds or (N, h, w) of rasters, or a
    list of equally sized ones, of the kind model.kind.  The data are
    first canonicalized when the model canonicalizes (its canonicalize is
    not 'off'): a cloud stack in one canonicalize_clouds call, a raster
    stack in one canonicalize_images call with the model's scheme and
    sigma.  The data must have the size of the model's weights; ValueError
    names both sizes of a mismatch.
    """
    data = np.asarray(data, dtype=float)
    if model.canonicalize != "off":
        data = (canonicalize_clouds(data) if model.kind == "cloud" else
                canonicalize_images(data, model.scheme, model.sigma)).canonical
    feats = data.reshape(len(data), -1)
    if feats.shape[1] != model.weights.shape[1]:
        raise ValueError(f"the model takes {_sized(model.kind, model.weights.shape[1])}, "
                         f"not {_sized(model.kind, feats.shape[1])}")
    return feats


def _sized(kind: str, n_features: int) -> str:
    """Name the inputs of a kind that give n_features features."""
    side = math.isqrt(n_features)
    if kind == "cloud" and n_features % 3 == 0:
        return f"{n_features // 3}-point clouds"
    if kind == "image" and side * side == n_features:
        return f"{side} x {side} rasters"
    return f"{kind}s of {n_features} features"


# ---------------------------------------------------------------------------
# Training


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _ce_grad(model, feats, labels):
    """Mean cross-entropy gradient over a batch; returns (gW, gb, logits)."""
    z = model.logits(feats)
    g = np.exp(_log_softmax(z))
    g[np.arange(len(labels)), labels] -= 1.0
    g /= len(labels)
    return g.T @ feats, g.sum(axis=0), z


def train_classifier(data: LabeledDataset, cfg: TrainConfig) -> LinearSoftmaxModel:
    """Fit the linear softmax head by plain minibatch gradient descent.

    The model is built before the first step, with zero weights (the
    objective is convex, so no random init is needed) and canonicalize
    'off' under cfg.canonicalize 'test_only', fitted in place, and returned
    recording cfg.canonicalize.  Every random draw comes from generators
    seeded by cfg.seed, making the result a deterministic function of
    (data, cfg).  Clean samples and augmented candidates become features
    through featurize.  Cloud candidates are the rotation_grid_3d()
    rotations the 3-D audit scores, so it sees a cloud model's training
    transforms (ROADMAP.md plans a held-out audit).  Raises ValueError if
    the parameters stop being finite (diverged learning rate).
    """
    model = LinearSoftmaxModel(weights=np.zeros((data.n_classes, data.inputs[0].size)),
                               bias=np.zeros(data.n_classes), kind=data.kind,
                               canonicalize="off" if cfg.canonicalize == "test_only"
                               else cfg.canonicalize,
                               scheme=cfg.scheme if data.kind == "image" else None,
                               sigma=cfg.sigma, mode=cfg.mode)
    clean_feats = featurize(model, data.inputs)
    labels = data.labels()

    shuffle_rng, aug_rng = (np.random.default_rng(s)
                            for s in np.random.SeedSequence(cfg.seed).spawn(2))
    # Only draw reads the grid, and building it takes no random draws.
    grid = (np.array([r for _, r in rotation_grid_3d()])
            if data.kind == "cloud" and cfg.mode != "plain" else None)

    k = 1 if cfg.mode == "random_augment" else cfg.k

    # k random orbit transforms of each raw datum of idx, all moved in one
    # call: clouds draw uniformly from the 3-D audit grid, images a uniform
    # angle in [0, 2 pi) (an array of draws is the stream of as many single
    # draws).  Draw order is fixed (per sample, then per candidate), which
    # is what makes two runs with the same seed — and the random_augment /
    # adversarial@k=1 pair — consume identical random streams.
    def draw(idx):
        stack, size = data.inputs[np.repeat(idx, k)], len(idx) * k
        if grid is not None:
            return stack @ grid[aug_rng.integers(len(grid), size=size)]
        return rotate_image(stack, aug_rng.uniform(0.0, 2.0 * np.pi, size=size), cfg.scheme)
    pairing = cfg.mode in ("adversarial_alp", "adversarial_kl") and cfg.lam > 0.0

    for epoch in range(cfg.epochs):
        order = shuffle_rng.permutation(len(data))
        for start in range(0, len(data), cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            yb = labels[idx]
            if cfg.mode == "plain":
                gW, gb, _ = _ce_grad(model, clean_feats[idx], yb)
            else:
                # Worst of k freshly drawn transforms per sample, judged by
                # the sample's current loss.  k is 1 for random_augment.
                # The batch's candidates are featurized and scored together,
                # k consecutive rows per sample.
                cand = featurize(model, draw(idx))
                losses = -_log_softmax(model.logits(cand))[np.arange(len(cand)), np.repeat(yb, k)]
                worst = np.argmax(losses.reshape(len(idx), k), axis=1)
                adv = cand[np.arange(len(idx)) * k + worst]
                gW, gb, z_adv = _ce_grad(model, adv, yb)
                if cfg.mode == "mixed":
                    gW2, gb2, _ = _ce_grad(model, clean_feats[idx], yb)
                    gW += gW2
                    gb += gb2
                elif pairing:
                    z_clean = model.logits(clean_feats[idx])
                    if cfg.mode == "adversarial_alp":
                        # d/dz ||z - z_hat||^2, averaged over the batch
                        d_adv = 2.0 * (z_adv - z_clean) / len(idx)
                        d_clean = -d_adv
                    else:
                        logp = _log_softmax(z_clean)
                        logq = _log_softmax(z_adv)
                        p = np.exp(logp)
                        kl = ((p * (logp - logq)).sum(axis=1, keepdims=True))
                        d_adv = (np.exp(logq) - p) / len(idx)
                        d_clean = p * (logp - logq - kl) / len(idx)
                    gW += cfg.lam * (d_adv.T @ adv + d_clean.T @ clean_feats[idx])
                    gb += cfg.lam * (d_adv + d_clean).sum(axis=0)
            if cfg.weight_decay > 0.0:
                # L2 on the weights only; the bias stays free, which is what
                # leaves a scale-independent term in the logits.
                gW += cfg.weight_decay * model.weights
            model.weights[...] -= cfg.learning_rate * gW
            model.bias[...] -= cfg.learning_rate * gb
        if not (np.all(np.isfinite(model.weights)) and np.all(np.isfinite(model.bias))):
            raise ValueError(
                f"training diverged at epoch {epoch}: non-finite parameters "
                f"(mode={cfg.mode}, learning_rate={cfg.learning_rate})")
    return replace(model, canonicalize=cfg.canonicalize)


# ---------------------------------------------------------------------------
# Evaluation


@dataclass
class ReportDocument:
    """An audit result in serializable form.

    `grid` holds one string label per evaluated transform (degrees for 2-D
    sweeps, 'i:j' grid steps for 3-D, the scale factor for scale sweeps)
    and `curve` the matching per-transform accuracy.
    """

    kind: str
    mode: str
    scheme: str
    canonicalized: bool
    n_samples: int
    clean: float
    average: float
    worst: float
    grid: tuple[str, ...]
    curve: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, ReportDocument):
            return NotImplemented
        return (all(getattr(self, f.name) == getattr(other, f.name)
                    for f in fields(ReportDocument) if f.name != "curve")
                and np.array_equal(self.curve, other.curve))


@dataclass(eq=False)  # keeps ReportDocument's array-aware __eq__
class AuditReport(ReportDocument):
    """Accuracies of one model over one transform family.

    The ReportDocument that write_report serializes, plus per_sample_worst:
    whether each sample is classified correctly under every transform on
    the grid.  curve[i] is the accuracy when every test input is hit with
    transform grid[i]; `average` is the mean of the curve, `worst` the
    mean of per_sample_worst and `clean` the accuracy on untransformed
    inputs.
    """

    per_sample_worst: np.ndarray

    def document(self) -> ReportDocument:
        """The report without per_sample_worst, as a plain ReportDocument."""
        return ReportDocument(**{f.name: getattr(self, f.name)
                                 for f in fields(ReportDocument)})


def _swept(model, inputs, parameters, move):
    """The feature rows (N, F) of inputs moved to each of parameters: move(inputs, chunk)
    gives one stack (G, N, ...), featurized in one call, SWEEP_CHUNK_FLOATS at a time.
    A datum that featurize refuses is named as its grid point alone names it."""
    step = max(1, SWEEP_CHUNK_FLOATS // inputs.size)
    for start in range(0, len(parameters), step):
        with np.errstate(over="ignore", invalid="ignore"):  # featurize or predict refuses it
            moved = move(inputs, parameters[start:start + step])
        try:
            feats = featurize(model, moved.reshape((-1,) + inputs.shape[1:]))
        except ValueError:
            for stack in moved:
                featurize(model, stack)
            raise
        yield from np.split(feats, len(moved))


def _sweep(model, data, audit, kind, grid, move, scheme) -> AuditReport:
    """Audit model on the data stack moved by move (see _swept) to every (label,
    parameter) of grid.  audit names the transform family in the report and
    kind the data it is defined for.  Each grid point is predicted on its own
    rows, so every logit is the one a grid point alone gives."""
    if data.kind != kind:
        raise ValueError(f"the {audit} audit is defined for {kind} data, "
                         f"not {data.kind} data")
    if data.kind != model.kind:
        raise ValueError(f"model expects {model.kind} data, got {data.kind}")
    labels = data.labels()
    clean_pred = model.predict(featurize(model, data.inputs))
    clean = float(np.mean(clean_pred == labels))
    parameters = np.array([parameter for _, parameter in grid])
    correct = np.empty((len(data), len(grid)), dtype=bool)
    for gi, rows in enumerate(_swept(model, data.inputs, parameters, move)):
        correct[:, gi] = model.predict(rows) == labels
    curve = correct.mean(axis=0)
    per_sample_worst = correct.all(axis=1)
    return AuditReport(kind=audit, scheme=scheme,
                       canonicalized=model.canonicalize != "off",
                       n_samples=len(data), clean=clean,
                       average=float(curve.mean()),
                       worst=float(per_sample_worst.mean()),
                       grid=tuple(label for label, _ in grid), curve=curve,
                       per_sample_worst=per_sample_worst,
                       mode=model.mode)


def _rotate_rasters(rasters, angles, scheme):
    """The stack (G, N, n, n) of rasters (N, n, n) rotated to G angles, in one call."""
    return rotate_image(np.broadcast_to(rasters, angles.shape + rasters.shape), angles, scheme)


def _rotate_clouds(clouds, rotations):
    """The stack (G, N, P, 3) of clouds (N, P, 3) moved by G rotations, as np.matmul(clouds, R)."""
    return np.matmul(clouds[None], rotations[:, None])


def evaluate_rotation_sweep_2d(model, data: LabeledDataset,
                               scheme: str = "bilinear") -> AuditReport:
    """Accuracy under content rotations at every whole degree.

    `scheme` is the resampler used to build the rotated test inputs (the
    attack side); the model's own canonicalization scheme is whatever it
    was trained with.
    """
    grid = [(str(deg), math.radians(deg)) for deg in range(360)]
    return _sweep(model, data, "rotation2d", "image", grid,
                  partial(_rotate_rasters, scheme=scheme), scheme)


def evaluate_rotation_grid_3d(model, data: LabeledDataset) -> AuditReport:
    """Accuracy under the full 3-D rotation grid (see rotation_grid_3d)."""
    return _sweep(model, data, "rotation3d", "cloud", rotation_grid_3d(), _rotate_clouds, "")


def evaluate_scale_sweep(model, data: LabeledDataset) -> AuditReport:
    """Accuracy under global rescaling of cloud coordinates."""
    grid = [(f"{s:g}", s) for s in SCALE_FACTORS]
    return _sweep(model, data, "scale", "cloud", grid,
                  lambda clouds, factors: clouds[None] * factors[:, None, None, None], "")


def softmax_curve(model, sample, angles, scheme: str = "bilinear") -> np.ndarray:
    """True-class softmax probability as the input spins through `angles`.

    Images rotate in-plane with `scheme`; clouds rotate about the z axis, both
    swept as the audits sweep (see _swept).  Returns one probability per angle;
    a label outside the model's classes, or logits that overflow, raise ValueError.
    """
    datum, label = sample
    if not (_is_integer(label) and 0 <= label < len(model.weights)):
        raise ValueError(f"label {label!r} is not one of the model's {len(model.weights)} classes")
    datum, angles = np.asarray(datum, dtype=float), np.asarray(angles, dtype=float)
    move = partial(_rotate_rasters, scheme=scheme)
    if model.kind == "cloud":
        angles, move = np.array([rotation_about(2, a) for a in angles]), _rotate_clouds
    logits = [model._finite_logits(row) for row in _swept(model, datum[None], angles, move)]
    with np.errstate(over="ignore"):  # a logit over the float range below the top is p = 0
        return np.array([np.exp(_log_softmax(z))[0, label] for z in logits])
